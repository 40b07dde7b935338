(* Binary AIGER and the reader's typed errors. The suite keeps its
   "npn-aiger" label from when it also covered NPN canonization. *)

module Aig = Sbm_aig.Aig
module Rng = Sbm_util.Rng

(* --- binary AIGER --- *)

let test_binary_roundtrip () =
  let rng = Rng.create 411 in
  for _ = 1 to 8 do
    let aig = Helpers.random_xor_aig ~inputs:7 ~gates:40 ~outputs:4 rng in
    let data = Sbm_aig.Aiger.write_binary aig in
    let back = Sbm_aig.Aiger.read_binary data in
    Aig.check back;
    Helpers.assert_equiv_exhaustive ~msg:"binary aiger roundtrip" aig back
  done

let test_binary_vs_ascii () =
  let rng = Rng.create 412 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:30 ~outputs:3 rng in
  let from_ascii = Sbm_aig.Aiger.read (Sbm_aig.Aiger.write aig) in
  let from_binary = Sbm_aig.Aiger.read_binary (Sbm_aig.Aiger.write_binary aig) in
  Helpers.assert_equiv_exhaustive ~msg:"formats agree" from_ascii from_binary

let test_file_format_dispatch () =
  let rng = Rng.create 413 in
  let aig = Helpers.random_xor_aig ~inputs:5 ~gates:20 ~outputs:2 rng in
  let ascii_path = Filename.temp_file "sbm" ".aag" in
  let binary_path = Filename.temp_file "sbm" ".aig" in
  Sbm_aig.Aiger.write_file aig ascii_path;
  let oc = open_out_bin binary_path in
  output_string oc (Sbm_aig.Aiger.write_binary aig);
  close_out oc;
  let a = Sbm_aig.Aiger.read_file ascii_path in
  let b = Sbm_aig.Aiger.read_file binary_path in
  Sys.remove ascii_path;
  Sys.remove binary_path;
  Helpers.assert_equiv_exhaustive ~msg:"dispatch" a b

(* The readers stream files through a 64 KiB chunk buffer; a network
   whose serialization spans several chunks exercises refills landing
   mid-line (ASCII) and mid-varint (binary). Structural digests, not
   exhaustive simulation: the network is too wide for truth tables. *)
let test_streaming_multichunk () =
  (* A 40k-AND chain: every node feeds the single output, so the whole
     network serializes (a random AIG's reachable cone is tiny). *)
  let aig = Aig.create () in
  let ins = Array.init 16 (fun _ -> Aig.add_input aig) in
  let acc = ref (Aig.band aig ins.(0) ins.(1)) in
  for i = 0 to 39_999 do
    acc := Aig.band aig (Aig.lnot !acc) ins.(i mod 16)
  done;
  ignore (Aig.add_output aig !acc);
  let check_format write suffix reader_name =
    let path = Filename.temp_file "sbm_stream" suffix in
    let data = write aig in
    let oc = open_out_bin path in
    output_string oc data;
    close_out oc;
    Alcotest.(check bool)
      (Printf.sprintf "%s: file spans chunks (%d bytes)" reader_name
         (String.length data))
      true
      (String.length data > 2 * 65536);
    let back = Sbm_aig.Aiger.read_file path in
    Sys.remove path;
    Aig.check back;
    (* The reader renumbers, so compare canonical digests. *)
    Alcotest.(check int64)
      (reader_name ^ ": digest survives the round trip")
      (Aig.fold_hash aig) (Aig.fold_hash back)
  in
  check_format Sbm_aig.Aiger.write ".aag" "ascii";
  check_format Sbm_aig.Aiger.write_binary ".aig" "binary"

(* --- malformed AIGER: typed errors, never a stray exception --- *)

module Aiger = Sbm_aig.Aiger

(* [Some location] when [parse] raises [Parse_error]; any other
   exception escapes and fails the test. *)
let parse_error parse data =
  match parse data with
  | _ -> None
  | exception Aiger.Parse_error { at; _ } -> Some at

let test_undefined_literal () =
  let at = parse_error Aiger.read "aag 3 2 0 1 1\n2\n4\n6\n6 2 9\n" in
  Alcotest.(check bool) "AND fanin located at its line" true
    (at = Some (Aiger.Line 5));
  let at = parse_error Aiger.read "aag 3 2 0 1 1\n2\n4\n11\n6 2 4\n" in
  Alcotest.(check bool) "output literal located at its line" true
    (at = Some (Aiger.Line 4))

let test_oversized_header () =
  let huge = "aag 1099511627775 1099511627774 0 0 1\n2\n" in
  Alcotest.(check bool) "counts beyond the file end at EOF, unallocated" true
    (parse_error Aiger.read huge = Some (Aiger.Line 2));
  Alcotest.(check bool) "numbers past 2^40 are rejected" true
    (parse_error Aiger.read "aag 1099511627776 0 0 0 0\n" = Some (Aiger.Line 1))

let test_truncated_binary () =
  let rng = Rng.create 415 in
  let aig = Helpers.random_xor_aig ~inputs:6 ~gates:30 ~outputs:3 rng in
  let data = Aiger.write_binary aig in
  let header = String.index data '\n' + 1 in
  for len = 0 to String.length data - 1 do
    match parse_error Aiger.read_binary (String.sub data 0 len) with
    | None -> Alcotest.failf "prefix of %d bytes parsed" len
    | Some (Aiger.Byte off) ->
      Alcotest.(check bool) "byte offset inside the prefix" true
        (off > header && off <= len)
    | Some (Aiger.Line _) -> ()
  done;
  Alcotest.(check bool) "cut in the AND section reports a byte offset" true
    (match parse_error Aiger.read_binary (String.sub data 0 (String.length data - 1)) with
    | Some (Aiger.Byte _) -> true
    | _ -> false)

(* Random bytes are rejected by the header check; random bytes behind
   a plausible binary header exercise the AND decoder, which may
   happen to decode a valid network but must never raise anything
   else. *)
let test_random_bytes () =
  let rng = Rng.create 416 in
  let random n = String.init n (fun _ -> Char.chr (Rng.int rng 256)) in
  for _ = 1 to 50 do
    let junk = random 200 in
    Alcotest.(check bool) "ascii reader" true (parse_error Aiger.read junk <> None);
    Alcotest.(check bool) "binary reader" true
      (parse_error Aiger.read_binary junk <> None);
    match Aiger.read_binary ("aig 24 4 0 2 20\n2\n5\n" ^ random 60) with
    | aig -> Aig.check aig
    | exception Aiger.Parse_error _ -> ()
  done

(* --- LUT mapping modes --- *)

let test_delay_mode_not_deeper () =
  let rng = Rng.create 414 in
  for _ = 1 to 5 do
    let aig = Helpers.random_xor_aig ~inputs:8 ~gates:60 ~outputs:4 rng in
    let area = Sbm_lutmap.Lut_map.map ~mode:`Area aig in
    let delay = Sbm_lutmap.Lut_map.map ~mode:`Delay aig in
    Sbm_lutmap.Lut_map.check aig delay;
    Alcotest.(check bool) "delay mode at most area-mode depth" true
      (delay.Sbm_lutmap.Lut_map.depth <= area.Sbm_lutmap.Lut_map.depth)
  done

let suite =
  [
    Alcotest.test_case "binary aiger roundtrip" `Quick test_binary_roundtrip;
    Alcotest.test_case "binary vs ascii" `Quick test_binary_vs_ascii;
    Alcotest.test_case "file format dispatch" `Quick test_file_format_dispatch;
    Alcotest.test_case "streaming reader spans chunks" `Quick
      test_streaming_multichunk;
    Alcotest.test_case "aiger: undefined literal" `Quick test_undefined_literal;
    Alcotest.test_case "aiger: oversized header" `Quick test_oversized_header;
    Alcotest.test_case "aiger: truncated binary" `Quick test_truncated_binary;
    Alcotest.test_case "aiger: random bytes" `Quick test_random_bytes;
    Alcotest.test_case "delay mapping mode" `Quick test_delay_mode_not_deeper;
  ]
