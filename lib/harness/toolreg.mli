(** The tool table: every tool name the CLI, the serve daemon and tenant
    specs accept, resolved to the {!Runner.tool_config} that
    {!Runner.run} builds the tool from. *)

val table : (string * string * Runner.tool_config) list
(** [(name, doc, config)] rows, in listing order: [detect],
    [detect-backoff], [analyze], [binfpe], [native]. *)

val names : string list
(** The names of {!table}, in order. *)

val tool_config_of_name :
  ?static_prune:bool -> string -> (Runner.tool_config, string) result
(** Resolve a {!table} name or a ["+"]-joined composition of them, run as
    one [Runner.Stack]. [static_prune] (default false) only affects
    detector members. [Error] names the first unknown name and lists the
    known ones. *)

val ensure : unit -> unit
(** A no-op, kept only because the frozen end-to-end benchmark
    ([bench/e2e/fpxbench.ml]) still calls it; remove it with the next
    benchmark change. *)
