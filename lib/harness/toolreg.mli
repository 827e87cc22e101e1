(** Populates the {!Fpx_tool} registry with every tool the harness
    links: the detector, the analyzer, the BinFPE baseline and a
    composed detector+analyzer stack.

    Call {!ensure} once from each entry point before consulting
    {!Fpx_tool.registered} or {!Fpx_tool.lookup}. Registration is
    deliberately not a module-initialisation side effect — the linker
    drops unreferenced modules from library archives, which would make
    the registry's contents depend on what else the binary happens to
    reference. *)

val ensure : unit -> unit
(** Idempotent; later calls are free. *)

val tool_config_of_name :
  ?static_prune:bool -> string -> (Runner.tool_config, string) result
(** Resolve a tool name as the CLI and the serve daemon accept it: a
    registered id ([detect], [analyze], [binfpe]) or a ["+"]-joined
    composition of them, run as one stack. [static_prune] (default
    false) only affects detector members. [Error] names the first
    unknown id and lists the registered ones. *)
