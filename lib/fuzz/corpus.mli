(** The content-addressed repro corpus.

    Artifacts land at [<dir>/<class>/<md5-of-artifact>.sass], so saving
    is idempotent and a campaign writes the same files regardless of job
    count or completion order. *)

val save : dir:string -> Oracle.clazz -> Repro.t -> string
(** Write the rendered case under its discrepancy class; returns the
    artifact path. *)

val save_label : dir:string -> label:string -> Repro.t -> string
(** Like {!save} under an arbitrary bucket label — the campaign engine
    files its minimized injection repros as
    [<dir>/campaign-<outcome>/<hash>.sass]. *)

val replay_command : string -> string
(** The exact CLI line that reproduces an artifact:
    ["fpx_run replay <path>"]. *)
