"""One module per `bfx` stage, each with the stage's runner `run(cfg)`.

`cli.main` imports the module of the stage it dispatches to and nothing
else, so a call compiles and loads only the CLI core, its own runner and
the library modules that runner uses. A runner takes the effective config
and returns (inputs, stem): the files it read and the path, less its
extension, of the sidecars `cli` writes (None: the stage writes no file).
A runner keeps no list of its outputs: the manifest lists the writes the
call's staged commit logged, in write order. Runners call library
functions as module attributes (`formats.read_pmap`, not a name imported
from `formats`), so rebinding a library function, as a tracer does, is
seen by every stage.
"""
