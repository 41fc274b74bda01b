"""One module per `bfx` stage, each with the stage's runner `run(cfg)`.

`cli.main` imports the module of the stage it dispatches to and nothing
else, so a call compiles and loads only the CLI core, its own runner and
the library modules that runner uses. A runner takes the effective config
and returns (inputs, outputs, primary stem or None), from which `cli`
writes the sidecars. Runners call library functions as module attributes
(`formats.read_pmap`, not a name imported from `formats`), so rebinding a
library function, as a tracer does, is seen by every stage.
"""
