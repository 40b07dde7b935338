(** Escaping of OCaml strings into JSON string bodies (without the
    surrounding quotes), shared by every JSON writer in the repo. *)

val string : string -> string
(** The escaped body of [s]. *)

val add : Buffer.t -> string -> unit
(** [add b s] appends the escaped body of [s] to [b]. *)
