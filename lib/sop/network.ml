module Aig = Sbm_aig.Aig

type node_id = int

type kind = Pi of int | Internal

type node = {
  kind : kind;
  mutable cover : Sop.cover;
  mutable alive : bool;
  (* Provenance carried from the source AIG ([of_aig]); [None] for
     nodes created inside the SOP domain (kernel/cube extraction). *)
  mutable origin : Aig.Origin.t option;
}

type t = {
  mutable nodes : node array;
  mutable n : int;
  inputs : int array; (* node ids, by PI index *)
  mutable outs : (node_id * bool) array; (* node id, complemented *)
  (* Caches over the reachable-cover structure, rebuilt lazily and
     dropped by [invalidate] on any cover mutation. [topo_cache] is
     the [internal_nodes] DFS order; [occ_cache.(v)] lists the
     internal nodes whose cover references [v], in topological order
     (exactly the fanout scan [eliminate_trial] used to recompute per
     candidate, which made elimination quadratic in network size). *)
  mutable topo_cache : node_id list option;
  mutable occ_cache : int list array option;
}

let invalidate t =
  t.topo_cache <- None;
  t.occ_cache <- None

let num_inputs t = Array.length t.inputs
let num_outputs t = Array.length t.outs

let node t id =
  if id < 0 || id >= t.n then invalid_arg "Network: bad node id";
  t.nodes.(id)

let cover t id = (node t id).cover

let alloc t kind cover =
  if t.n >= Array.length t.nodes then begin
    let bigger = Array.make (2 * Array.length t.nodes) { kind = Internal; cover = []; alive = false; origin = None } in
    Array.blit t.nodes 0 bigger 0 t.n;
    t.nodes <- bigger
  end;
  let id = t.n in
  t.n <- id + 1;
  t.nodes.(id) <- { kind; cover; alive = true; origin = None };
  id

let of_aig aig =
  let cap = Aig.num_nodes aig + 2 in
  let t =
    {
      nodes = Array.make cap { kind = Internal; cover = []; alive = false; origin = None };
      n = 0;
      inputs = Array.make (Aig.num_inputs aig) (-1);
      outs = [||];
      topo_cache = None;
      occ_cache = None;
    }
  in
  let map = Array.make (Aig.num_nodes aig) (-1) in
  (* Constant-zero node. *)
  let const_id = alloc t Internal [] in
  map.(0) <- const_id;
  for i = 0 to Aig.num_inputs aig - 1 do
    let id = alloc t (Pi i) [] in
    t.inputs.(i) <- id;
    map.(Aig.node_of (Aig.input_lit aig i)) <- id
  done;
  let order = Aig.topo aig in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        let f0 = Aig.fanin0 aig v and f1 = Aig.fanin1 aig v in
        let lit f = Sop.lit_of map.(Aig.node_of f) (Aig.is_compl f) in
        let c = Sop.cube_of_list [ lit f0; lit f1 ] in
        let id = alloc t Internal [ c ] in
        t.nodes.(id).origin <- Some (Aig.node_origin aig v);
        map.(v) <- id
      end)
    order;
  t.outs <-
    Array.map
      (fun l -> (map.(Aig.node_of l), Aig.is_compl l))
      (Aig.outputs aig);
  t

let internal_nodes t =
  match t.topo_cache with
  | Some order -> order
  | None ->
    (* Topological order by DFS from the outputs. *)
    let visited = Array.make t.n false in
    let order = ref [] in
    let rec visit id =
      if not visited.(id) then begin
        visited.(id) <- true;
        match (node t id).kind with
        | Pi _ -> ()
        | Internal ->
          List.iter
            (fun c -> Array.iter (fun l -> visit (Sop.var_of l)) c)
            (node t id).cover;
          order := id :: !order
      end
    in
    Array.iter (fun (id, _) -> visit id) t.outs;
    let order = List.rev !order in
    t.topo_cache <- Some order;
    order

(* [occurrences t].(v) lists the reachable internal nodes whose cover
   references [v], topologically ordered. *)
let occurrences t =
  match t.occ_cache with
  | Some occ when Array.length occ = t.n -> occ
  | Some _ | None ->
    let occ = Array.make t.n [] in
    List.iter
      (fun m ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun c ->
            Array.iter
              (fun l ->
                let v = Sop.var_of l in
                if not (Hashtbl.mem seen v) then begin
                  Hashtbl.add seen v ();
                  occ.(v) <- m :: occ.(v)
                end)
              c)
          (cover t m))
      (internal_nodes t);
    Array.iteri (fun v l -> occ.(v) <- List.rev l) occ;
    t.occ_cache <- Some occ;
    occ

let num_internal t = List.length (internal_nodes t)

let num_lits t =
  List.fold_left (fun acc id -> acc + Sop.num_lits (cover t id)) 0 (internal_nodes t)

let fanout_count t id =
  let live = internal_nodes t in
  List.fold_left
    (fun acc m ->
      let refs =
        List.exists (fun c -> Array.exists (fun l -> Sop.var_of l = id) c) (cover t m)
      in
      if refs && m <> id then acc + 1 else acc)
    0 live

let is_output t id = Array.exists (fun (o, _) -> o = id) t.outs

(* Substitute node [n]'s cover into cover [cv]; None on cube-count
   explosion or un-complementable negative occurrences. *)
let substitute ~max_cubes cv n cover_n =
  let pos = Sop.lit_of n false and neg = Sop.lit_of n true in
  let has_pos = List.exists (fun c -> Array.exists (fun l -> l = pos) c) cv in
  let has_neg = List.exists (fun c -> Array.exists (fun l -> l = neg) c) cv in
  if (not has_pos) && not has_neg then Some cv
  else begin
    let q_pos = Sop.divide_by_cube cv [| pos |] in
    let q_neg = Sop.divide_by_cube cv [| neg |] in
    let rest =
      List.filter
        (fun c -> not (Array.exists (fun l -> l = pos || l = neg) c))
        cv
    in
    let neg_part =
      if not has_neg then Some []
      else
        match Sop.complement ~max_cubes cover_n with
        | None -> None
        | Some compl_n -> Some (Sop.mul q_neg compl_n)
    in
    match neg_part with
    | None -> None
    | Some neg_cubes ->
      let pos_cubes = if has_pos then Sop.mul q_pos cover_n else [] in
      let merged = Sop.normalize (rest @ pos_cubes @ neg_cubes) in
      if List.length merged > max_cubes then None else Some merged
  end

let eliminate_trial t n ~max_cubes =
  let nd = node t n in
  match nd.kind with
  | Pi _ -> None
  | Internal ->
    if is_output t n || not nd.alive then None
    else begin
      let fanouts = List.filter (fun m -> m <> n) (occurrences t).(n) in
      if fanouts = [] then Some ([], - (Sop.num_lits nd.cover))
      else begin
        let rec go acc delta = function
          | [] -> Some (acc, delta - Sop.num_lits nd.cover)
          | m :: rest -> (
            match substitute ~max_cubes (cover t m) n nd.cover with
            | None -> None
            | Some cv ->
              go ((m, cv) :: acc) (delta + Sop.num_lits cv - Sop.num_lits (cover t m)) rest)
        in
        go [] 0 fanouts
      end
    end

let eliminate_value t n ~max_cubes =
  Option.map snd (eliminate_trial t n ~max_cubes)

let eliminate_node t n ~max_cubes =
  match eliminate_trial t n ~max_cubes with
  | None -> None
  | Some (updates, delta) ->
    List.iter (fun (m, cv) -> (node t m).cover <- cv) updates;
    (node t n).alive <- false;
    invalidate t;
    Some delta

let eliminate t ~threshold ~max_cubes ?(only = fun _ -> true) () =
  let eliminated = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let candidates = internal_nodes t in
    List.iter
      (fun n ->
        if only n && not (is_output t n) then begin
          match eliminate_value t n ~max_cubes with
          | Some v when v < threshold -> (
            match eliminate_node t n ~max_cubes with
            | Some _ ->
              incr eliminated;
              changed := true
            | None -> ())
          | Some _ | None -> ()
        end)
      candidates
  done;
  !eliminated

(* Value of extracting kernel [k] given its occurrence list
   [(node, cokernel)]. *)
let kernel_value k occs =
  let lits_k = Sop.num_lits k in
  let cubes_k = List.length k in
  let per_occ =
    List.fold_left
      (fun acc (_, cok) ->
        let lits_c = Array.length cok in
        acc + ((cubes_k - 1) * lits_c) + lits_k - 1)
      0 occs
  in
  per_occ - lits_k

let extract_kernels t ?(only = fun _ -> true) ~max_passes () =
  let created = ref 0 in
  let continue_ = ref true in
  let pass = ref 0 in
  while !continue_ && !pass < max_passes do
    incr pass;
    continue_ := false;
    let table : (Sop.cube list, (node_id * Sop.cube) list) Hashtbl.t = Hashtbl.create 64 in
    let nodes = List.filter only (internal_nodes t) in
    List.iter
      (fun n ->
        let cv = cover t n in
        if List.length cv >= 2 then
          List.iter
            (fun (k, cok) ->
              if List.length k >= 2 then begin
                let key = Sop.canonical k in
                let prev = Option.value ~default:[] (Hashtbl.find_opt table key) in
                Hashtbl.replace table key ((n, cok) :: prev)
              end)
            (Sop.kernels_bounded ~limit:30 cv))
      nodes;
    (* Pick the best-value kernel. *)
    let best = ref None in
    Hashtbl.iter
      (fun k occs ->
        let v = kernel_value k occs in
        match !best with
        | Some (bv, _, _) when bv >= v -> ()
        | Some _ | None -> if v > 0 then best := Some (v, k, occs))
      table;
    match !best with
    | None -> ()
    | Some (_, k, occs) ->
      let y = alloc t Internal k in
      let y_lit = Sop.lit_of y false in
      let touched = List.sort_uniq Stdlib.compare (List.map fst occs) in
      let applied = ref false in
      List.iter
        (fun n ->
          let cv = cover t n in
          let q, r = Sop.divide cv k in
          if q <> [] then begin
            let newq = List.filter_map (fun c -> Sop.cube_mul c [| y_lit |]) q in
            let candidate = Sop.normalize (newq @ r) in
            if Sop.num_lits candidate + 1 < Sop.num_lits cv then begin
              (node t n).cover <- candidate;
              invalidate t;
              applied := true
            end
          end)
        touched;
      if !applied then begin
        incr created;
        continue_ := true
      end
      else (node t y).alive <- false
  done;
  !created

let extract_cubes t ?(only = fun _ -> true) ~max_passes () =
  let created = ref 0 in
  let continue_ = ref true in
  let pass = ref 0 in
  while !continue_ && !pass < max_passes do
    incr pass;
    continue_ := false;
    let counts : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
    let nodes = List.filter only (internal_nodes t) in
    List.iter
      (fun n ->
        List.iter
          (fun c ->
            let len = Array.length c in
            for i = 0 to len - 1 do
              for j = i + 1 to len - 1 do
                let key = (c.(i), c.(j)) in
                Hashtbl.replace counts key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
              done
            done)
          (cover t n))
      nodes;
    let best = ref None in
    Hashtbl.iter
      (fun key cnt ->
        match !best with
        | Some (bc, _) when bc >= cnt -> ()
        | Some _ | None -> if cnt > 2 then best := Some (cnt, key))
      counts;
    match !best with
    | None -> ()
    | Some (_, (l1, l2)) ->
      let y = alloc t Internal [ Sop.cube_of_list [ l1; l2 ] ] in
      let y_lit = Sop.lit_of y false in
      List.iter
        (fun n ->
          let cv = cover t n in
          let replaced =
            List.map
              (fun c ->
                if Array.exists (fun l -> l = l1) c && Array.exists (fun l -> l = l2) c
                then
                  Array.to_list c
                  |> List.filter (fun l -> l <> l1 && l <> l2)
                  |> List.cons y_lit
                  |> Sop.cube_of_list
                else c)
              cv
          in
          (node t n).cover <- Sop.normalize replaced)
        nodes;
      invalidate t;
      incr created;
      continue_ := true
  done;
  !created

(* [provenance = (src, fallback)] carries origin tags through the SOP
   round-trip: the factored logic of each internal node is stamped
   with the node's recorded origin (from [of_aig]); nodes created in
   the SOP domain (extracted kernels/cubes) are stamped — and their
   construction counted — under [fallback]. *)
let to_aig ?provenance t =
  let aig = Aig.create ~expected:(t.n * 4) () in
  (match provenance with
  | None -> ()
  | Some (src, _) -> Aig.begin_rebuild aig ~from:src);
  let map = Array.make t.n Aig.const0 in
  Array.iteri (fun _ id -> map.(id) <- Aig.add_input aig) t.inputs;
  let lit_of_sop_lit l =
    let base = map.(Sop.var_of l) in
    if Sop.lit_is_compl l then Aig.lnot base else base
  in
  (* Quick literal factoring. *)
  let rec factor cv =
    if Sop.is_const0 cv then Aig.const0
    else if Sop.is_const1 cv then Aig.const1
    else
      match cv with
      | [ c ] -> Aig.band_list aig (List.map lit_of_sop_lit (Array.to_list c))
      | _ ->
        (* Find the most shared literal. *)
        let counts = Hashtbl.create 16 in
        List.iter
          (fun c ->
            Array.iter
              (fun l ->
                Hashtbl.replace counts l
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
              c)
          cv;
        let best = ref None in
        Hashtbl.iter
          (fun l cnt ->
            if cnt >= 2 then
              match !best with
              | Some (bc, _) when bc >= cnt -> ()
              | Some _ | None -> best := Some (cnt, l))
          counts;
        (match !best with
        | None ->
          (* No sharing: plain two-level. *)
          Aig.bor_list aig
            (List.map
               (fun c -> Aig.band_list aig (List.map lit_of_sop_lit (Array.to_list c)))
               cv)
        | Some (_, l) ->
          let q = Sop.divide_by_cube cv [| l |] in
          let r = List.filter (fun c -> not (Array.exists (fun x -> x = l) c)) cv in
          let q_lit = factor q in
          let r_lit = factor r in
          Aig.bor aig (Aig.band aig (lit_of_sop_lit l) q_lit) r_lit)
  in
  let prepared id =
    let cv = cover t id in
    (* Exact two-level cleanup before factoring, where affordable. *)
    if List.length cv <= 12 && List.length (Sop.support cv) <= 16 then
      Sop.minimize cv
    else cv
  in
  List.iter
    (fun id ->
      match provenance with
      | None -> map.(id) <- factor (prepared id)
      | Some (_, fallback) -> (
        match (node t id).origin with
        | Some o ->
          Aig.set_origin aig o;
          map.(id) <- factor (prepared id)
        | None ->
          (* Genuinely new logic: count the ANDs it factors into. *)
          Aig.set_origin aig fallback;
          let cp = Aig.mark_created aig in
          map.(id) <- factor (prepared id);
          Aig.note_created aig fallback (Aig.fresh_since aig cp)))
    (internal_nodes t);
  Array.iter
    (fun (id, compl) ->
      let l = map.(id) in
      ignore (Aig.add_output aig (if compl then Aig.lnot l else l)))
    t.outs;
  (match provenance with
  | None -> ()
  | Some (src, _) ->
    Aig.end_rebuild aig;
    Aig.set_origin aig (Aig.current_origin src));
  aig

(* Deep copy for parallel analysis: node records are fresh (covers are
   replaced wholesale, never mutated in place, so sharing the cube
   lists themselves is safe), caches start cold. *)
let copy t =
  {
    nodes =
      Array.init (Array.length t.nodes) (fun i ->
          let nd = t.nodes.(i) in
          { kind = nd.kind; cover = nd.cover; alive = nd.alive; origin = nd.origin });
    n = t.n;
    inputs = Array.copy t.inputs;
    outs = Array.copy t.outs;
    topo_cache = None;
    occ_cache = None;
  }

let mark t = t.n

let set_cover t n cv =
  (node t n).cover <- cv;
  invalidate t

let revive t n = (node t n).alive <- true

let truncate t m =
  invalidate t;
  for id = m to t.n - 1 do
    t.nodes.(id).alive <- false
  done

let check t =
  (* Acyclicity + live references via DFS with an on-stack mark. *)
  let state = Array.make t.n 0 in
  let rec visit id =
    if state.(id) = 1 then failwith "Network.check: cycle detected"
    else if state.(id) = 0 then begin
      state.(id) <- 1;
      (match (node t id).kind with
      | Pi _ -> ()
      | Internal ->
        List.iter
          (fun c ->
            Array.iter
              (fun l ->
                let v = Sop.var_of l in
                if v < 0 || v >= t.n then failwith "Network.check: bad reference";
                if not (node t v).alive then failwith "Network.check: dead reference";
                visit v)
              c)
          (node t id).cover);
      state.(id) <- 2
    end
  in
  Array.iter (fun (id, _) -> visit id) t.outs

let eval t bits =
  if Array.length bits <> num_inputs t then invalid_arg "Network.eval";
  let memo = Array.make t.n None in
  let rec value id =
    match memo.(id) with
    | Some b -> b
    | None ->
      let b =
        match (node t id).kind with
        | Pi i -> bits.(i)
        | Internal -> Sop.eval (node t id).cover (fun v -> value v)
      in
      memo.(id) <- Some b;
      b
  in
  Array.map (fun (id, compl) -> if compl then not (value id) else value id) t.outs

(* --- canonical structural digest ---

   Network-side twin of [Aig.fold_hash]: a bottom-up 64-bit fold over
   the reachable cover structure, used as the structure component of
   the heterogeneous-kernel merge-boundary fingerprints (DESIGN.md
   §15). Node ids never enter the hash — every node hashes from the
   hashes of the nodes its cover references — and literals within a
   cube and cubes within a cover combine commutatively, so the digest
   only depends on the logic function structure, not on allocation
   order or list ordering. *)

let fh_finalize = Sbm_util.Hash64.finalize
let fh_mix2 = Sbm_util.Hash64.mix2
let fh_pi_tag = fh_finalize 0x9747b28cL
let fh_node_tag = fh_finalize 0x3c6ef372L
let fh_compl_mask = fh_finalize 0xa54ff53aL

let fold_hash t =
  let h = Array.make t.n 0L in
  Array.iteri (fun i id -> h.(id) <- fh_mix2 fh_pi_tag (Int64.of_int i)) t.inputs;
  let hlit l =
    let base = h.(Sop.var_of l) in
    if Sop.lit_is_compl l then Int64.logxor base fh_compl_mask else base
  in
  let hcube c =
    fh_finalize (Array.fold_left (fun acc l -> Int64.add acc (fh_finalize (hlit l))) 0L c)
  in
  let hcover cov =
    fh_finalize (List.fold_left (fun acc c -> Int64.add acc (hcube c)) 0L cov)
  in
  List.iter
    (fun id -> h.(id) <- fh_mix2 fh_node_tag (hcover (node t id).cover))
    (internal_nodes t);
  let acc =
    fh_mix2 (Int64.of_int (num_inputs t)) (Int64.of_int (num_outputs t))
  in
  Array.fold_left
    (fun acc (id, compl) ->
      let base = h.(id) in
      let v = if compl then Int64.logxor base fh_compl_mask else base in
      fh_mix2 acc v)
    acc t.outs
