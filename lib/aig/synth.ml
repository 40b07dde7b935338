module Tt = Sbm_truthtable.Tt

(* Decomposition choices recorded by the cost search and replayed by
   the builder. *)
type choice =
  | Const of bool
  | Literal of int * bool (* variable, complemented *)
  | Shannon of int (* mux(x, hi, lo) *)
  | Xor of int (* x xor lo *)
  | And_pos of int (* x and hi *)
  | And_neg of int (* ~x and lo *)
  | Or_pos of int (* x or lo *)
  | Or_neg of int (* ~x or hi *)

let mux_cost = 3
let xor_cost = 3

(* Returns (cost, choice) for [tt], memoized in [memo].

   The search is bounded: variables whose cofactors are degenerate
   (constant or complementary) decompose for free and are always
   explored; otherwise only the two most promising split variables
   (largest cofactor-agreement, a cheap binateness proxy) recurse, so
   a width-n function costs O(2^n) sub-searches instead of O(n!). *)
let rec search memo tt =
  match Tt.Tbl.find_opt memo tt with
  | Some r -> r
  | None ->
    let r =
      if Tt.is_const0 tt then (0, Const false)
      else if Tt.is_const1 tt then (0, Const true)
      else begin
        match Tt.support tt with
        | [ v ] ->
          if Tt.equal tt (Tt.var (Tt.num_vars tt) v) then (0, Literal (v, false))
          else (0, Literal (v, true))
        | vars ->
          let best = ref (max_int, Const false) in
          let consider cost choice = if cost < fst !best then best := (cost, choice) in
          (* Pass 1: degenerate decompositions (cheap checks, single
             recursion each). *)
          let generic = ref [] in
          List.iter
            (fun v ->
              let f0 = Tt.cofactor0 tt v in
              let f1 = Tt.cofactor1 tt v in
              if Tt.equal_not f0 f1 then begin
                let c0, _ = search memo f0 in
                consider (c0 + xor_cost) (Xor v)
              end
              else if Tt.is_const0 f0 then begin
                let c1, _ = search memo f1 in
                consider (c1 + 1) (And_pos v)
              end
              else if Tt.is_const0 f1 then begin
                let c0, _ = search memo f0 in
                consider (c0 + 1) (And_neg v)
              end
              else if Tt.is_const1 f0 then begin
                let c1, _ = search memo f1 in
                consider (c1 + 1) (Or_neg v)
              end
              else if Tt.is_const1 f1 then begin
                let c0, _ = search memo f0 in
                consider (c0 + 1) (Or_pos v)
              end
              else begin
                (* Score: prefer splits whose cofactors agree a lot
                   (they share structure and simplify). *)
                let agreement = Tt.agreement f0 f1 in
                generic := (agreement, v, f0, f1) :: !generic
              end)
            vars;
          if fst !best = max_int || !generic <> [] then begin
            let ranked =
              List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a) !generic
            in
            let take2 = match ranked with a :: b :: _ -> [ a; b ] | l -> l in
            List.iter
              (fun (_, v, f0, f1) ->
                let c0, _ = search memo f0 in
                let c1, _ = search memo f1 in
                consider (c0 + c1 + mux_cost) (Shannon v))
              take2
          end;
          !best
      end
    in
    Tt.Tbl.add memo tt r;
    r

let rec build memo aig leaves tt =
  let _, choice = search memo tt in
  match choice with
  | Const false -> Aig.const0
  | Const true -> Aig.const1
  | Literal (v, c) -> if c then Aig.lnot leaves.(v) else leaves.(v)
  | Shannon v ->
    let hi = build memo aig leaves (Tt.cofactor1 tt v) in
    let lo = build memo aig leaves (Tt.cofactor0 tt v) in
    Aig.bmux aig leaves.(v) hi lo
  | Xor v ->
    let lo = build memo aig leaves (Tt.cofactor0 tt v) in
    Aig.bxor aig leaves.(v) lo
  | And_pos v ->
    let hi = build memo aig leaves (Tt.cofactor1 tt v) in
    Aig.band aig leaves.(v) hi
  | And_neg v ->
    let lo = build memo aig leaves (Tt.cofactor0 tt v) in
    Aig.band aig (Aig.lnot leaves.(v)) lo
  | Or_pos v ->
    let lo = build memo aig leaves (Tt.cofactor0 tt v) in
    Aig.bor aig leaves.(v) lo
  | Or_neg v ->
    let hi = build memo aig leaves (Tt.cofactor1 tt v) in
    Aig.bor aig (Aig.lnot leaves.(v)) hi

type memo = (int * choice) Tt.Tbl.t

let memo () = Tt.Tbl.create 256

(* Only single-word tables go through a shared memo: a pass collapses
   thousands of distinct wider cones, and keeping their sub-searches
   for the whole pass nearly doubles the peak heap for few hits. *)
let of_tt ?memo aig tt leaves =
  if Array.length leaves < Tt.num_vars tt then invalid_arg "Synth.of_tt: missing leaves";
  let memo =
    match memo with
    | Some m when Tt.num_vars tt <= 6 -> m
    | Some _ | None -> Tt.Tbl.create 64
  in
  build memo aig leaves tt

let cost_of_tt tt =
  let memo = Tt.Tbl.create 64 in
  fst (search memo tt)

let of_sop aig cubes ~nvars leaves =
  if Array.length leaves < nvars then invalid_arg "Synth.of_sop";
  let cube_lit (c : Tt.cube) =
    let lits = ref [] in
    for i = 0 to nvars - 1 do
      if (c.Tt.pos lsr i) land 1 = 1 then lits := leaves.(i) :: !lits
      else if (c.Tt.neg lsr i) land 1 = 1 then lits := Aig.lnot leaves.(i) :: !lits
    done;
    Aig.band_list aig !lits
  in
  Aig.bor_list aig (List.map cube_lit cubes)
