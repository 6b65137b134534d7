"""One module per ``dquant`` command, which ``dquant.cli`` imports only to run it.

Each module has ``add_arguments(parser)``, which adds its options after
``--out``, and ``run(args)``, which returns the exit code. ``sweep`` serves
both ``spdc`` and ``convert``.
"""
