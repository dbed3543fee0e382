"""One ``lsfem run`` in a fresh process, timed as a user sees it.

    python3 child.py SRC CONFIG OUT RESULT MODE T_SPAWN

SRC goes first on ``sys.path``, so the lsfem under test is the checkout's
own.  T_SPAWN is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux).  RESULT receives JSON:

- ``setup_s``: T_SPAWN to the first call into the adaptive loop, which is
  interpreter start, ``import lsfem`` (numpy, scipy) and config parsing;
- ``run_s``: the ``lsfem.cli.main(["run", ...])`` call;
- ``peak_rss_mb``: this process's ``ru_maxrss`` in MiB;
- ``exit_code``, and with MODE ``trace`` the recorded ``spans``.

MODE ``run`` is the plain run; ``setup`` stops at the first call into the
loop, so only its ``setup_s`` means anything.
"""

import json
import resource
import sys
import time
from pathlib import Path


class SetupDone(Exception):
    """Raised at the first call into the loop of a ``setup`` probe."""


def main(argv):
    src, config, out, result_path, mode, t_spawn = argv
    sys.path.insert(0, src)
    import lsfem.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"imported lsfem from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    loop_start = []
    run_adaptive = cli.run_adaptive

    def first_call(*args, **kwargs):
        loop_start.append(time.monotonic())
        if mode == "setup":
            raise SetupDone
        return run_adaptive(*args, **kwargs)
    cli.run_adaptive = first_call

    cli_args = ["run", "--config", config, "--out", out]
    result = {}
    if mode == "setup":
        try:
            code = cli.main(cli_args)
        except SetupDone:
            code = 0
        t0 = t1 = time.monotonic()
    elif mode == "trace":
        from tracing import Recorder

        recorder = Recorder(run_id=Path(out).parent.name)
        with recorder.installed():
            t0 = time.monotonic()
            code = recorder.call("cli.main", cli.main, (cli_args,), {})
            t1 = time.monotonic()
        result["spans"] = recorder.to_json()
    else:
        t0 = time.monotonic()
        code = cli.main(cli_args)
        t1 = time.monotonic()
    cli.run_adaptive = run_adaptive

    result.update(
        exit_code=code,
        setup_s=loop_start[0] - float(t_spawn) if loop_start else None,
        run_s=t1 - t0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
