(** AIGER reading and writing, ASCII ([aag]) and binary ([aig]).

    Combinational subset only (no latches): enough to exchange
    networks with ABC/mockturtle-style tools and to persist EPFL-style
    benchmarks. Every reader accepts either format (the header's magic
    word decides) and reports malformed input as {!Parse_error}. *)

type location =
  | Line of int  (** 1-based line number *)
  | Byte of int  (** byte offset from the start of the input (binary ANDs) *)

exception Parse_error of { at : location; msg : string }
(** Malformed input: bad header, latches, a non-numeric field, an
    undefined or doubly defined literal, or a truncated file. *)

val error_to_string : location -> string -> string
(** ["line 3: undefined literal 12"]. *)

(** [write aig] renders the network in [aag] format. Nodes are
    renumbered (inputs first, then ANDs topologically). *)
val write : Aig.t -> string

(** [write_file aig path] writes {!write}'s output to a file. *)
val write_file : Aig.t -> string -> unit

(** [read s] parses an AIGER string.
    @raise Parse_error on malformed input or latch sections. *)
val read : string -> Aig.t

(** [read_file path] parses the file at [path].
    @raise Parse_error on malformed input. *)
val read_file : string -> Aig.t

(** [write_binary aig] renders the network in the binary [aig] format
    (delta-encoded AND section), the format the EPFL suite
    distributes. *)
val write_binary : Aig.t -> string

(** [read_binary] is {!read}; the name documents call sites that
    feed binary [aig] bytes. *)
val read_binary : string -> Aig.t
