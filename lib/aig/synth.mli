(** Resynthesis of truth tables into AIG structure.

    The structural back-end of rewriting, refactoring and of the
    BDD-merging step of the Boolean-difference engine ("the node is
    implemented as an AIG obtained using structural hashing", paper
    Section III-C). The decomposition search is memoized and explores,
    per top variable, Shannon expansion, XOR factoring and the
    degenerate single-cofactor cases, keeping the cheapest. *)

(** Decomposition choices already searched, keyed by the exact truth
    table. The search is a pure function of the table, so a memo can be
    shared by every {!of_tt} call of one pass without changing any
    result. It is used for tables of at most 6 variables (one word);
    wider tables keep a memo private to the call. A memo is not safe to
    share between domains. *)
type memo

val memo : unit -> memo

(** [of_tt ?memo aig tt leaves] builds (or reuses, through the strash
    table) logic computing [tt] where variable [i] of [tt] is driven by
    literal [leaves.(i)]. Returns the root literal. The constructed
    cone is dangling: the caller either commits it with
    {!Aig.replace}/{!Aig.add_output} or discards it with
    {!Aig.delete_dangling}. *)
val of_tt : ?memo:memo -> Aig.t -> Sbm_truthtable.Tt.t -> Aig.lit array -> Aig.lit

(** [cost_of_tt tt] is the number of AND nodes the decomposition would
    use, ignoring sharing with existing logic (an upper bound on the
    real cost). *)
val cost_of_tt : Sbm_truthtable.Tt.t -> int

(** [of_sop aig cubes ~nvars leaves] builds two-level logic for an SOP
    cover (used when an ISOP cover is already available). *)
val of_sop : Aig.t -> Sbm_truthtable.Tt.cube list -> nvars:int -> Aig.lit array -> Aig.lit
