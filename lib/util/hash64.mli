(** 64-bit mixing primitives shared by every structural digest
    ([Aig.fold_hash], [Network.fold_hash]), the prefilter bank digest,
    the audit-trail chain and the SplitMix64 generator. Digests built
    from these are persisted (audit trails, ledger rows), so the
    constants must never change. *)

val finalize : int64 -> int64
(** SplitMix64 finalizer: a full-avalanche 64-bit mix. *)

val mix2 : int64 -> int64 -> int64
(** [mix2 a b] folds [b] into the accumulator [a] (golden-ratio
    multiply-add, then {!finalize}). Order-sensitive. *)

val string : string -> int64
(** FNV-1a 64-bit hash of a string. *)
