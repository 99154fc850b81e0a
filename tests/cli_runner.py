"""Run the gcsdiag CLI in-process and capture what it writes, with the standard library alone."""

import contextlib
import io
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    exception: BaseException | None  # a nonzero SystemExit, or what the command raised


class CliRunner:
    def invoke(self, main, args):
        buf = io.StringIO()
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                main(args=list(args))
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:  # reported to the test, as a crash of the command
                exit_code, exception = 1, exc
        return Result(exit_code, buf.getvalue(), exception)
