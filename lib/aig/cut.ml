type cut = { leaves : int array; tt : int64 }

let tt_mask m = if m >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl m)) 1L

let var_pattern = [|
  0xAAAAAAAAAAAAAAAAL;
  0xCCCCCCCCCCCCCCCCL;
  0xF0F0F0F0F0F0F0F0L;
  0xFF00FF00FF00FF00L;
  0xFFFF0000FFFF0000L;
  0xFFFFFFFF00000000L;
|]

let tt_var m j =
  if j < 0 || j >= m || m > 6 then invalid_arg "Cut.tt_var";
  Int64.logand var_pattern.(j) (tt_mask m)

(* Exchange variables [i] < [k] of a single-word table. *)
let swap_vars t i k =
  let vi = var_pattern.(i) and vk = var_pattern.(k) in
  let up = Int64.logand vi (Int64.lognot vk) in
  let down = Int64.logand (Int64.lognot vi) vk in
  let sh = (1 lsl k) - (1 lsl i) in
  Int64.logor
    (Int64.logand t (Int64.lognot (Int64.logor up down)))
    (Int64.logor
       (Int64.shift_left (Int64.logand t up) sh)
       (Int64.shift_right_logical (Int64.logand t down) sh))

(* Replicate the table over |super| variables, where it ignores the
   new ones, then move each leaf's variable up to its position in
   [super], highest first: the position it moves to always holds a
   variable the table ignores. *)
let stretch tt leaves super =
  let m = Array.length leaves in
  let m' = Array.length super in
  if m = m' then tt
  else begin
    let t = ref (Int64.logand tt (tt_mask m)) in
    for s = m to m' - 1 do
      t := Int64.logor !t (Int64.shift_left !t (1 lsl s))
    done;
    let i = ref (m' - 1) in
    for j = m - 1 downto 0 do
      while !i >= 0 && super.(!i) <> leaves.(j) do decr i done;
      if !i < 0 then invalid_arg "Cut.stretch: leaves not in super";
      if !i <> j then t := swap_vars !t j !i;
      decr i
    done;
    !t
  end

(* Sorted-array union; None if the union exceeds k. The union is
   sized before anything is allocated, so a rejected pair costs no
   allocation. *)
let merge_leaves k a b =
  let la = Array.length a and lb = Array.length b in
  let rec count i j n =
    if n > k then n
    else if i = la then n + lb - j
    else if j = lb then n + la - i
    else
      let x = a.(i) and y = b.(j) in
      if x = y then count (i + 1) (j + 1) (n + 1)
      else if x < y then count (i + 1) j (n + 1)
      else count i (j + 1) (n + 1)
  in
  let n = count 0 0 0 in
  if n > k then None
  else begin
    let out = Array.make n 0 in
    let rec fill i j o =
      if i = la then Array.blit b j out o (lb - j)
      else if j = lb then Array.blit a i out o (la - i)
      else
        let x = a.(i) and y = b.(j) in
        out.(o) <- (if x <= y then x else y);
        if x = y then fill (i + 1) (j + 1) (o + 1)
        else if x < y then fill (i + 1) j (o + 1)
        else fill i (j + 1) (o + 1)
    in
    fill 0 0 0;
    Some out
  end

(* Size first, then lexicographic on the sorted leaf ids. *)
let compare_leaves l1 l2 =
  let n1 = Array.length l1 and n2 = Array.length l2 in
  if n1 <> n2 then Stdlib.compare n1 n2
  else begin
    let rec go i =
      if i = n1 then 0
      else
        let a = Array.unsafe_get l1 i and b = Array.unsafe_get l2 i in
        if a <> b then Stdlib.compare (a : int) b else go (i + 1)
    in
    go 0
  end

(* [subset l1 l2]: every leaf of [l1] is in [l2]. *)
let subset l1 l2 =
  let n1 = Array.length l1 and n2 = Array.length l2 in
  n1 <= n2
  &&
  let rec go i j =
    if i = n1 then true
    else if j = n2 then false
    else if l1.(i) = l2.(j) then go (i + 1) (j + 1)
    else if l1.(i) > l2.(j) then go i (j + 1)
    else false
  in
  go 0 0

(* The cuts of an AND node with fanins [f0], [f1] from its fanins' cut
   sets: pairwise unions of at most [k] leaves, deduplicated, without
   cuts whose leaves include another kept cut's, the first [max_cuts]
   in size order kept.

   Leaf sets are chosen before any truth table is computed, so only
   kept cuts get one. The choice never reads a table: the sort sees
   only leaves, and among equal leaf sets it keeps the same fanin pair
   whatever the tables are. (Two pairs can give one leaf set different
   tables when a leaf lies inside the other fanin's cone.) In size
   order a cut can only be dominated by an earlier, smaller one, so
   the first [max_cuts] undominated cuts are final. *)
let node_cuts ~k ~max_cuts f0 f1 cuts0 cuts1 =
  let merged = ref [] in
  List.iter
    (fun c0 ->
      List.iter
        (fun c1 ->
          match merge_leaves k c0.leaves c1.leaves with
          | None -> ()
          | Some leaves -> merged := (leaves, c0, c1) :: !merged)
        cuts1)
    cuts0;
  let rec select kept n = function
    | [] -> List.rev kept
    | _ when n = max_cuts -> List.rev kept
    | ((leaves, _, _) as m) :: rest ->
      if List.exists (fun (kl, _, _) -> subset kl leaves) kept then select kept n rest
      else select (m :: kept) (n + 1) rest
  in
  let by_leaves (l1, _, _) (l2, _, _) = compare_leaves l1 l2 in
  List.map
    (fun (leaves, c0, c1) ->
      let t0 = stretch c0.tt c0.leaves leaves in
      let t1 = stretch c1.tt c1.leaves leaves in
      let t0 = if Aig.is_compl f0 then Int64.lognot t0 else t0 in
      let t1 = if Aig.is_compl f1 then Int64.lognot t1 else t1 in
      { leaves; tt = Int64.logand (Int64.logand t0 t1) (tt_mask (Array.length leaves)) })
    (select [] 0 (List.sort_uniq by_leaves !merged))

let const_cut = { leaves = [||]; tt = 0L }
let trivial v = { leaves = [| v |]; tt = tt_var 1 0 }

let enumerate aig ~k ~max_cuts =
  if k < 2 || k > 6 then invalid_arg "Cut.enumerate: k must be in [2,6]";
  let sets = Array.make (Aig.num_nodes aig) [] in
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_input aig v then sets.(v) <- [ trivial v ]
      else if Aig.is_and aig v then begin
        let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
        let v0 = Aig.node_of f0 and v1 = Aig.node_of f1 in
        let cuts0 = if v0 = 0 then [ const_cut ] else sets.(v0) in
        let cuts1 = if v1 = 0 then [ const_cut ] else sets.(v1) in
        sets.(v) <- trivial v :: node_cuts ~k ~max_cuts f0 f1 cuts0 cuts1
      end)
    order;
  sets

let local aig root ~k ~max_cuts ~depth =
  if k < 2 || k > 6 then invalid_arg "Cut.local: k must be in [2,6]";
  let memo = Hashtbl.create 64 in
  let rec cuts_of v d =
    match Hashtbl.find_opt memo v with
    | Some cs -> cs
    | None ->
      let cs =
        if v = 0 then [ const_cut ]
        else if d = 0 || not (Aig.is_and aig v) then [ trivial v ]
        else begin
          let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
          let cuts0 = cuts_of (Aig.node_of f0) (d - 1) in
          let cuts1 = cuts_of (Aig.node_of f1) (d - 1) in
          let cs = node_cuts ~k ~max_cuts f0 f1 cuts0 cuts1 in
          if List.exists (fun c -> Array.length c.leaves = 1) cs then cs
          else trivial v :: cs
        end
      in
      Hashtbl.add memo v cs;
      cs
  in
  cuts_of root depth

let cut_tt_full c =
  Sbm_truthtable.Tt.of_word (Array.length c.leaves) c.tt
