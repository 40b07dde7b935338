let write aig =
  let buf = Buffer.create 4096 in
  let order = Aig.topo aig in
  let ninputs = Aig.num_inputs aig in
  let nands = Aig.size aig in
  (* Renumber: input i gets variable i+1; ANDs follow topologically. *)
  let var_of = Array.make (Aig.num_nodes aig) (-1) in
  for i = 0 to ninputs - 1 do
    var_of.(Aig.node_of (Aig.input_lit aig i)) <- i + 1
  done;
  let next = ref (ninputs + 1) in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        var_of.(v) <- !next;
        incr next
      end)
    order;
  let maxvar = !next - 1 in
  let lit_out l =
    let v = Aig.node_of l in
    let base = if v = 0 then 0 else 2 * var_of.(v) in
    base lor (l land 1)
  in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d 0 %d %d\n" maxvar ninputs (Aig.num_outputs aig) nands);
  for i = 0 to ninputs - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (2 * (i + 1)))
  done;
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "%d\n" (lit_out l)))
    (Aig.outputs aig);
  Array.iter
    (fun v ->
      if Aig.is_and aig v then
        Buffer.add_string buf
          (Printf.sprintf "%d %d %d\n" (2 * var_of.(v))
             (lit_out (Aig.fanin0 aig v))
             (lit_out (Aig.fanin1 aig v))))
    order;
  Buffer.contents buf

let write_file aig path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (write aig))

(* --- streaming byte source ---

   Both readers pull bytes through a fixed-size chunk buffer, so
   parsing a file never materializes its contents as one string: peak
   reader memory is one chunk plus the current line. The same source
   serves in-memory strings (tests, round-trips) and channels. It
   counts lines and bytes consumed, so parse errors can say where. *)

type location = Line of int | Byte of int

exception Parse_error of { at : location; msg : string }

let error_to_string at msg =
  match at with
  | Line n -> Printf.sprintf "line %d: %s" n msg
  | Byte n -> Printf.sprintf "byte %d: %s" n msg

let () =
  Printexc.register_printer (function
    | Parse_error { at; msg } -> Some ("Aiger.Parse_error: " ^ error_to_string at msg)
    | _ -> None)

type source = {
  refill : bytes -> int;
  (* Fill the chunk from the underlying producer; 0 means EOF. *)
  chunk : bytes;
  mutable pos : int;
  mutable avail : int; (* -1 once the producer is exhausted *)
  mutable line : int; (* lines consumed *)
  mutable offset : int; (* bytes consumed *)
}

let chunk_size = 65536

let source_of_channel ic =
  let chunk = Bytes.create chunk_size in
  { refill = (fun b -> input ic b 0 (Bytes.length b)); chunk; pos = 0; avail = 0;
    line = 0; offset = 0 }

let source_of_string s =
  (* The string is already resident; serve it as the one chunk. *)
  { refill = (fun _ -> 0); chunk = Bytes.of_string s; pos = 0;
    avail = String.length s; line = 0; offset = 0 }

let next_byte src =
  if src.pos < src.avail then begin
    let c = Bytes.get_uint8 src.chunk src.pos in
    src.pos <- src.pos + 1;
    src.offset <- src.offset + 1;
    c
  end
  else if src.avail < 0 then -1
  else begin
    let n = src.refill src.chunk in
    if n = 0 then begin
      src.avail <- -1;
      -1
    end
    else begin
      src.pos <- 1;
      src.avail <- n;
      src.offset <- src.offset + 1;
      Bytes.get_uint8 src.chunk 0
    end
  end

(* One line, newline excluded; [None] at end of input. *)
let next_line src =
  let b = Buffer.create 32 in
  let rec go () =
    match next_byte src with
    | -1 -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | 0x0A -> Some (Buffer.contents b)
    | c ->
      Buffer.add_char b (Char.chr c);
      go ()
  in
  let l = go () in
  if l <> None then src.line <- src.line + 1;
  l

(* One reader for both formats. The ASCII and binary layouts differ
   only in how inputs are declared (explicit literals vs. implicit
   variables 1..I) and how ANDs are encoded (text lines vs. delta
   varints); header, outputs and literal resolution are shared. *)
let read_source src =
  let fail_at at fmt =
    Printf.ksprintf (fun msg -> raise (Parse_error { at; msg })) fmt
  in
  let fail fmt = fail_at (Line src.line) fmt in
  (* Non-blank line, trimmed (tolerates \r\n and stray blank lines). *)
  let rec line () =
    match next_line src with
    | None -> fail "unexpected end of file"
    | Some l ->
      let l = String.trim l in
      if l = "" then line () else l
  in
  (* The upper bound keeps header arithmetic far from overflow. *)
  let nat s =
    match int_of_string_opt s with
    | Some n when n >= 0 && n < 1 lsl 40 -> n
    | _ -> fail "expected an integer in [0, 2^40), got %S" s
  in
  let binary, maxvar, ninputs, noutputs, nands =
    match String.split_on_char ' ' (line ()) with
    | [ (("aag" | "aig") as magic); m; i; l; o; a ] ->
      let maxvar = nat m and ninputs = nat i and nands = nat a in
      if nat l <> 0 then fail "latches unsupported";
      if ninputs + nands > maxvar then fail "header: M is less than I + L + A";
      (magic = "aig", maxvar, ninputs, nat o, nands)
    | _ -> fail "bad header (expected \"aag M I L O A\" or \"aig M I L O A\")"
  in
  (* Preallocation and the variable -> literal map are capped and grow
     as variables are defined, so a header that overstates its counts
     cannot force a huge allocation before the file runs out. *)
  let aig = Aig.create ~expected:(min (ninputs + nands + 2) 65536) () in
  let map = ref (Array.make (min (maxvar + 1) 65536) (-1)) in
  !map.(0) <- Aig.const0;
  let lookup v = if v < Array.length !map then !map.(v) else -1 in
  let define ~at v lit =
    if v = 0 || v > maxvar then fail_at at "variable %d outside 1..%d" v maxvar;
    if lookup v >= 0 then fail_at at "variable %d defined twice" v;
    if v >= Array.length !map then
      map := Array.append !map (Array.make (min maxvar (2 * v) + 1 - Array.length !map) (-1));
    !map.(v) <- lit
  in
  let lit_in ~at l =
    let base = lookup (l / 2) in
    if base < 0 then fail_at at "undefined literal %d" l;
    base lxor (l land 1)
  in
  for i = 1 to ninputs do
    if binary then define ~at:(Line src.line) i (Aig.add_input aig)
    else begin
      let l = nat (line ()) in
      if l land 1 <> 0 then fail "complemented input %d" l;
      define ~at:(Line src.line) (l / 2) (Aig.add_input aig)
    end
  done;
  (* Output literals may reference AND variables defined below them;
     hold the raw literals (and where they were) until the AND section
     has streamed past. *)
  let outs =
    Array.init noutputs (fun _ ->
        let l = nat (line ()) in
        (l, Line src.line))
  in
  let rec varint at shift acc =
    let byte = next_byte src in
    if byte < 0 then fail_at (Byte src.offset) "unexpected end of file";
    if shift > 56 then fail_at at "varint too long";
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then acc else varint at (shift + 7) acc
  in
  for k = 0 to nands - 1 do
    if binary then begin
      (* Binary AND k defines variable I + 1 + k from the two deltas
         (lhs - rhs0) and (rhs0 - rhs1). *)
      let at = Byte src.offset in
      let lhs = 2 * (ninputs + 1 + k) in
      let r0 = lhs - varint at 0 0 in
      let r1 = r0 - varint at 0 0 in
      if r0 < 0 || r1 < 0 then fail_at at "AND deltas below literal 0";
      define ~at (lhs / 2) (Aig.band aig (lit_in ~at r0) (lit_in ~at r1))
    end
    else
      (* The format requires lhs > rhs, so processing AND definitions
         in file order resolves every fanin. *)
      match String.split_on_char ' ' (line ()) with
      | [ lhs; rhs0; rhs1 ] ->
        let at = Line src.line in
        let lhs = nat lhs in
        if lhs land 1 <> 0 then fail "complemented AND lhs %d" lhs;
        let f0 = lit_in ~at (nat rhs0) in
        let f1 = lit_in ~at (nat rhs1) in
        define ~at (lhs / 2) (Aig.band aig f0 f1)
      | _ -> fail "bad AND line (expected \"lhs rhs0 rhs1\")"
  done;
  Array.iter (fun (l, at) -> ignore (Aig.add_output aig (lit_in ~at l))) outs;
  aig

let read s = read_source (source_of_string s)
let read_binary = read

(* Binary AIGER: the AND section stores, for each AND in variable
   order, the two differences (lhs - rhs0) and (rhs0 - rhs1) as
   LEB128-style 7-bit varints. *)

let write_varint buf x =
  let x = ref x in
  while !x >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!x land 0x7f)));
    x := !x lsr 7
  done;
  Buffer.add_char buf (Char.chr !x)

let write_binary aig =
  let buf = Buffer.create 4096 in
  let order = Aig.topo aig in
  let ninputs = Aig.num_inputs aig in
  let nands = Aig.size aig in
  let var_of = Array.make (Aig.num_nodes aig) (-1) in
  for i = 0 to ninputs - 1 do
    var_of.(Aig.node_of (Aig.input_lit aig i)) <- i + 1
  done;
  let next = ref (ninputs + 1) in
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        var_of.(v) <- !next;
        incr next
      end)
    order;
  let maxvar = !next - 1 in
  let lit_out l =
    let v = Aig.node_of l in
    let base = if v = 0 then 0 else 2 * var_of.(v) in
    base lor (l land 1)
  in
  Buffer.add_string buf
    (Printf.sprintf "aig %d %d 0 %d %d\n" maxvar ninputs (Aig.num_outputs aig) nands);
  (* In binary mode, input literals are implicit. *)
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "%d\n" (lit_out l)))
    (Aig.outputs aig);
  Array.iter
    (fun v ->
      if Aig.is_and aig v then begin
        let lhs = 2 * var_of.(v) in
        let r0 = lit_out (Aig.fanin0 aig v) in
        let r1 = lit_out (Aig.fanin1 aig v) in
        (* The format requires lhs > rhs0 >= rhs1. *)
        let r0, r1 = if r0 >= r1 then (r0, r1) else (r1, r0) in
        write_varint buf (lhs - r0);
        write_varint buf (r0 - r1)
      end)
    order;
  Buffer.contents buf

(* Streamed: the file is parsed through a chunked source, never
   slurped into one string — peak reader memory during load is one
   64 KiB chunk regardless of file size. The header's magic word picks
   the format. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> read_source (source_of_channel ic))
