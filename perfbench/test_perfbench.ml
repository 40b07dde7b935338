(* Pins the benchmark's inputs and its exponent fit.

   The digests are of the binary AIGER bytes the benchmark hands the
   program. A change to a generator or to the
   AIGER writer changes them, and must show up as a changed workload,
   not as a speed change: update the pins and the figures together. *)

module W = Perfbench.Workloads

let pinned =
  [
    ( "arith-baseline",
      [
        ("sqrt4", "b97501ac00bfd03b296708b8b44dc498");
        ("sqrt6", "64b1f514c9de1945ada2cd7d7d1712bf");
        ("sqrt8", "82c01cfe665c05bf1ea41f5922fe3020");
        ("log24", "c966082514664852f03c6e26ed790f04");
        ("sqrt12", "ddf7939abfd40eb2c1b35b09474ae48b");
        ("log26", "6a4695b4791058456897aea251eb998b");
      ] );
    ( "ctrl-sbm",
      [
        ("ctrl30", "51688635d73cfb45ad15d71f8ea589f9");
        ("ctrl100", "97474c8f3be23f6e75dcce050ce32700");
        ("ctrl300", "f815a5d296cc4c4c0b1c7202cd366169");
        ("ctrl500", "8fd844e138022d935673bb34aa850fb3");
      ] );
    ( "arith-sbm",
      [
        ("sqrt4", "b97501ac00bfd03b296708b8b44dc498");
        ("sqrt6", "64b1f514c9de1945ada2cd7d7d1712bf");
        ("mult4", "70d7672718b8e4ab10768acad90c5941");
        ("div4", "fd4fcf56adb309832465acea55cbfa30");
        ("sqrt12", "ddf7939abfd40eb2c1b35b09474ae48b");
      ] );
  ]

let digests (w : W.t) =
  List.map (fun (d : string W.design) -> (d.name, W.digest d.data))
    (W.encode (w.designs ()))

let failures = ref 0

let check cond msg =
  if not cond then begin
    incr failures;
    prerr_endline ("FAIL: " ^ msg)
  end

let close_to a b = Float.abs (a -. b) < 1e-9

let () =
  List.iter
    (fun (w : W.t) ->
      let got = digests w in
      let want = List.assoc w.name pinned in
      check (got = want)
        (Printf.sprintf "%s: input digests changed:\n%s" w.name
           (String.concat "\n"
              (List.map (fun (n, d) -> Printf.sprintf "  (%S, %S);" n d) got)));
      check (digests w = got) (w.name ^ ": set-up is not deterministic"))
    W.all;
  (* The fit recovers a known slope, whatever the constant factor. *)
  let pts k = List.map (fun x -> (x, 3e-4 *. (x ** k))) [ 20.; 90.; 400.; 1500. ] in
  check (close_to (Perfbench.Fit.exponent (pts 1.7)) 1.7) "fit: slope 1.7";
  check (close_to (Perfbench.Fit.exponent (pts 1.0)) 1.0) "fit: slope 1.0";
  check
    (close_to (Perfbench.Fit.exponent [ (10., 1.); (100., 100.) ]) 2.0)
    "fit: two points a decade apart";
  let refused pts =
    match Perfbench.Fit.exponent pts with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check (refused [ (100., 1.); (999., 50.) ]) "fit: a ladder under a decade is refused";
  check (refused [ (100., 1.) ]) "fit: one point is refused";
  check (refused [ (10., 0.); (1000., 5.) ]) "fit: a zero time is refused";
  if !failures > 0 then exit 1;
  print_endline "perfbench: inputs and fit OK"
