"""Traced stand-in for ``python -m shearwave``: run one CLI command with
the layer wrappers installed and write the spans to a JSON file.

Usage: python3 trace_child.py SPANS.json COMMAND [ARGS...]
"""

import sys

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import shearwave.cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = shearwave.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
