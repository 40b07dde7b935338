(* The benchmark's workloads: which designs each one generates, which
   flow script it runs them through, and at how many jobs. Each design
   is one rung of a size ladder. Rung sizes are chosen so that one pass
   over a workload takes 5-9 s on a 2-core x86-64 host, leaving room
   for at least four timed repeats in the default 40 s run.

   The designs do not depend on the run's seed. Seeded random control
   instances differ from seed to seed by more than the benchmark's
   bounds allow. Drawing 48 instances of up to 120 gates per seed,
   the SBM flow took 19-29 s over ten seeds and the peak heap was
   12-25 MB over five, and one seed's instance needed more than the
   conflict budget to prove. *)

module Aig = Sbm_aig.Aig
module Epfl = Sbm_epfl.Epfl
module Flow = Sbm_core.Flow

type 'a design = { name : string; data : 'a }

type t = {
  name : string;
  script : Flow.script;
  jobs : int;
  why : string;  (** why the workload is in the benchmark *)
  designs : unit -> Aig.t design list;  (** smallest rung first *)
}

(* Word width of each arithmetic family at scale 1.0, so a rung can be
   named by its actual width. *)
let full_width = function
  | Epfl.Log2 -> 32
  | Epfl.Sqrt -> 128
  | Epfl.Div | Epfl.Mult -> 64
  | b -> invalid_arg ("Workloads.full_width: " ^ Epfl.name b)

let arith b width =
  let scale = float_of_int width /. float_of_int (full_width b) in
  { name = Printf.sprintf "%s%d" (Epfl.name b) width; data = Epfl.generate ~scale b }

(* The [gates]-gate rung of the control ladder, with the generator's
   own shape: about one input per ten gates and one output per
   twelve. *)
let control gates =
  {
    name = Printf.sprintf "ctrl%d" gates;
    data =
      Epfl.random_control ~seed:gates ~inputs:(max 8 (gates / 10))
        ~outputs:(max 4 (gates / 12)) ~gates;
  }

let arith_baseline =
  {
    name = "arith-baseline";
    script = Flow.Baseline;
    jobs = 1;
    why =
      "Deep, narrow arithmetic cones: Flow.run time grows as about the \
       2.5th power of input ANDs, rewrite takes about 66 % of it, \
       refactor 22 % and resub 11 %; no BDD, SAT, SOP or partition \
       engine runs, so engine-side changes should not move it.";
    designs =
      (fun () ->
        [
          arith Epfl.Sqrt 4; arith Epfl.Sqrt 6; arith Epfl.Sqrt 8;
          arith Epfl.Log2 4; arith Epfl.Sqrt 12; arith Epfl.Log2 6;
        ]);
  }

let ctrl_sbm =
  {
    name = "ctrl-sbm";
    script = Flow.Sbm Flow.Low;
    jobs = 2;
    why =
      "Shallow, wide control logic: the SBM engines take about 80 % of \
       Flow.run (gradient 32 %, hetero-kernel 27 %, collapse-decompose \
       12 %) and the baseline passes 21 %; jobs 2 exercises the \
       partition-parallel passes.";
    designs = (fun () -> List.map control [ 30; 100; 300; 500 ]);
  }

let arith_sbm =
  {
    name = "arith-sbm";
    script = Flow.Sbm Flow.Low;
    jobs = 1;
    why =
      "Small arithmetic where sat-sweep takes about 15 % of Flow.run \
       (3 % on ctrl-sbm) with 16 times ctrl-sbm's SAT conflicts; \
       gradient and hetero-kernel still take about 27 % each.";
    designs =
      (fun () ->
        [
          arith Epfl.Sqrt 4; arith Epfl.Sqrt 6; arith Epfl.Mult 4;
          arith Epfl.Div 4; arith Epfl.Sqrt 12;
        ]);
  }

let all = [ arith_baseline; ctrl_sbm; arith_sbm ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The program only ever sees these bytes: each design is encoded
   once, and [Aiger.read_binary] of them is the input every timed step
   starts from. *)
let encode designs =
  List.map (fun d -> { d with data = Sbm_aig.Aiger.write_binary d.data }) designs

let digest bytes = Digest.to_hex (Digest.string bytes)
