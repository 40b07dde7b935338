(* Registered-metric catalog for `sbm metrics`.

   The process-global registry (Sbm_obs.Metrics) is populated by
   module-initialisation side effects, so simply linking the engines
   makes every metric visible here — no run needed. The catalog backs
   two consumers: humans (aligned text table) and the CI drift gate,
   which compares the registry against the metric table documented in
   DESIGN.md so code and docs cannot diverge silently. *)

module M = Sbm_obs.Metrics

let row m =
  (M.name m, M.kind_to_string (M.kind m), M.unit_ m, M.engine m, M.description m)

let to_text () =
  let rows = List.map row (M.all ()) in
  let w4 f = List.fold_left (fun acc r -> max acc (String.length (f r))) 0 rows in
  let nw = max 6 (w4 (fun (n, _, _, _, _) -> n)) in
  let kw = max 4 (w4 (fun (_, k, _, _, _) -> k)) in
  let uw = max 4 (w4 (fun (_, _, u, _, _) -> u)) in
  let ew = max 6 (w4 (fun (_, _, _, e, _) -> e)) in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "%-*s  %-*s  %-*s  %-*s  %s\n" nw "metric" kw "kind" uw
       "unit" ew "engine" "description");
  List.iter
    (fun (n, k, u, e, d) ->
      Buffer.add_string b
        (Printf.sprintf "%-*s  %-*s  %-*s  %-*s  %s\n" nw n kw k uw u ew e d))
    rows;
  Buffer.add_string b (Printf.sprintf "%d metrics registered\n" (List.length rows));
  Buffer.contents b

let escape = Sbm_util.Json_escape.string

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"version\":1,\"metrics\":[";
  List.iteri
    (fun i m ->
      let n, k, u, e, d = row m in
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"kind\":\"%s\",\"unit\":\"%s\",\"engine\":\"%s\",\"description\":\"%s\"}"
           (escape n) (escape k) (escape u) (escape e) (escape d)))
    (M.all ());
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* DESIGN.md drift gate. The documented table uses rows of the form

     | `sat.conflicts` | counter | count | sat | ... |

   A markdown table row counts as a metric declaration when its first
   cell is a backticked name AND its second cell is a metric kind —
   the kind requirement keeps other backticked-first-column tables in
   the same document (e.g. the paper-reproduction matrix) out of the
   gate. The comparison covers (name, kind, unit, engine) in both
   directions. *)

let doc_rows src =
  let rows = ref [] in
  String.split_on_char '\n' src
  |> List.iter (fun line ->
         let line = String.trim line in
         if String.length line > 1 && line.[0] = '|' then begin
           let cells =
             String.split_on_char '|' line
             |> List.map String.trim
             |> List.filter (fun c -> c <> "")
           in
           match cells with
           | name :: kind :: unit_ :: engine :: _
             when String.length name > 2
                  && name.[0] = '`'
                  && name.[String.length name - 1] = '`'
                  && M.kind_of_string kind <> None ->
             let name = String.sub name 1 (String.length name - 2) in
             rows := (name, (kind, unit_, engine)) :: !rows
           | _ -> ()
         end);
  List.rev !rows

let check doc_src =
  let doc = doc_rows doc_src in
  let reg =
    List.map
      (fun m ->
        (M.name m, (M.kind_to_string (M.kind m), M.unit_ m, M.engine m)))
      (M.all ())
  in
  let drift = ref [] in
  let note fmt = Printf.ksprintf (fun s -> drift := s :: !drift) fmt in
  if doc = [] then note "no metric table rows found in the document";
  List.iter
    (fun (name, (k, u, e)) ->
      match List.assoc_opt name doc with
      | None -> note "`%s` is registered but missing from the document" name
      | Some (dk, du, de) ->
        if dk <> k then
          note "`%s`: documented kind %S, registered %S" name dk k;
        if du <> u then
          note "`%s`: documented unit %S, registered %S" name du u;
        if de <> e then
          note "`%s`: documented engine %S, registered %S" name de e)
    reg;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name reg) then
        note "`%s` is documented but not registered" name)
    doc;
  match List.rev !drift with [] -> Ok (List.length reg) | msgs -> Error msgs
