(* The in-process synthesis workloads: [mip-exact] and [suite].

   One pass synthesises every design of the workload through the
   public entry points, in the composition [Pipeline.synthesize] uses
   for [Auto] but with the preprocess boundary exposed:

     Bdd.Sbdd.of_netlist -> Compact.Preprocess.of_sbdd
       -> Compact.Pipeline.synthesize_graph (Auto, jobs = 1)
       -> Crossbar.Verify.auto against Logic.Netlist.eval_point

   The netlist evaluator is independent of the BDD and crossbar code,
   so a wrong design is caught whatever layer broke it. *)

type spec = {
  fname : string;
  netlist : Logic.Netlist.t;
  gamma : float;
  time_limit : float;
  stair_s : int;  (** staircase reference semiperimeter *)
  stair_d : int;  (** staircase reference max dimension *)
}

type outcome = {
  spec : spec;
  s : int;
  d : int;
  vh : int;
  path : string list;
  optimal : bool;
  verified : bool;
  secs : float;
  points : int;
  bdd_nodes : int;
  bdd_lookups : int;
  bdd_hits : int;
  alloc_words : float;
  kernel : float;  (** [Stats.kernel] time measured just before *)
}

(* Every function of [mip-exact] is proven optimal by the MIP rung well
   inside the default 60 s rung budget, so wall time measures work. *)
let mip_exact_functions () =
  let suite name = (Circuits.Suite.find name).Circuits.Suite.generate () in
  [
    suite "ctrl";
    suite "cavlc";
    Circuits.Arith.ripple_adder ~bits:3 ();
    Circuits.Arith.subtractor ~bits:3 ();
    Circuits.Arith.comparator ~bits:3 ();
    Circuits.Arith.adder_comparator ~bits:2 ();
    Circuits.Arith.max_unit ~bits:3 ();
  ]

let mip_exact_gammas = [ 0.; 0.5; 1. ]

(* The fixed per-rung wall budget of [suite], in seconds. *)
let suite_time_limit = 1.0

let suite_functions () = List.map (fun e -> e.Circuits.Suite.generate ()) Circuits.Suite.all

(* Random-sampling trials for designs with more than
   [Crossbar.Verify.exhaustive_threshold] inputs: compactd's own
   default. *)
let verify_trials = Server.Engine.default_config.verify_trials

let verify_points nl =
  let n = List.length nl.Logic.Netlist.inputs in
  if n <= Crossbar.Verify.exhaustive_threshold then 1 lsl n else verify_trials

(* Run [f] in a forked child and return its marshalled result.  The
   staircase references build one ROBDD manager per output and peak
   above 1 GB on the large suite circuits; computing them in a child
   keeps that out of the synthesizing process's peak RSS. *)
let in_child f =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (f ()) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v = Marshal.from_channel ic in
    close_in ic;
    (match Unix.waitpid [] pid with
     | _, Unix.WEXITED 0 -> ()
     | _ -> failwith "staircase reference child failed");
    v

(* Set-up: generate the netlists (circuits layer) and the staircase
   reference designs of [16] (baseline layer). *)
let setup ~smoke workload =
  let functions, gammas, time_limit =
    match workload with
    | `Mip_exact ->
      let fs = Obs.Span.with_ "circuits" mip_exact_functions in
      (if smoke then [ List.nth fs 2; List.nth fs 4 ] else fs), mip_exact_gammas, 60.
    | `Suite ->
      let fs = Obs.Span.with_ "circuits" suite_functions in
      let fs =
        if smoke then List.filter (fun nl -> List.mem nl.Logic.Netlist.name [ "ctrl"; "int2float" ]) fs
        else fs
      in
      fs, [ 0.5 ], suite_time_limit
  in
  let refs : (int * int) list =
    Obs.Span.with_ "baseline" (fun () ->
        in_child (fun () ->
               List.map
                 (fun nl ->
                    let m = (Baseline.Staircase.synthesize nl).Baseline.Staircase.merged in
                    Crossbar.Design.semiperimeter m, Crossbar.Design.max_dimension m)
                 functions))
  in
  List.concat_map
    (fun (nl, (stair_s, stair_d)) ->
       List.map
         (fun gamma ->
            { fname = nl.Logic.Netlist.name; netlist = nl; gamma; time_limit; stair_s; stair_d })
         gammas)
    (List.combine functions refs)

let synth_one ~seed spec =
  let nl = spec.netlist in
  let options =
    { Compact.Pipeline.default_options with
      gamma = spec.gamma; solver = Auto; time_limit = spec.time_limit; jobs = 1 }
  in
  (* Each design starts from a collected heap, so the major-GC work it
     is charged for is its own garbage, not that of the design before. *)
  let kernel = Stats.kernel () in
  Gc.full_major ();
  let t0 = Obs.Clock.now () in
  Obs.Span.with_ ~attrs:[ "circuit", spec.fname; "gamma", Printf.sprintf "%g" spec.gamma ] "design"
  @@ fun () ->
  let sbdd =
    Obs.Span.with_ "bdd-build" (fun () ->
        Bdd.Sbdd.of_netlist ~node_limit:options.bdd_node_limit nl)
  in
  let bg = Obs.Span.with_ "preprocess" (fun () -> Compact.Preprocess.of_sbdd sbdd) in
  let w0 = Gc.minor_words () in
  let r =
    Obs.Span.with_ "synthesize-graph" (fun () ->
        Compact.Pipeline.synthesize_graph ~options ~name:spec.fname bg)
  in
  let alloc_words = Gc.minor_words () -. w0 in
  let verified =
    Obs.Span.with_ "verify" (fun () ->
        Crossbar.Verify.auto ~seed:(Crossbar.Rng.derive seed spec.fname) ~trials:verify_trials
          r.design ~inputs:nl.inputs ~reference:(Logic.Netlist.eval_point nl)
          ~outputs:nl.outputs
        = Crossbar.Verify.Ok)
  in
  let secs = Obs.Clock.now () -. t0 in
  let rep = r.report and st = Bdd.Sbdd.stats sbdd in
  {
    spec;
    s = rep.semiperimeter;
    d = rep.max_dimension;
    vh = rep.vh_count;
    path = rep.solver_path;
    optimal = rep.optimal;
    verified;
    secs;
    points = verify_points nl;
    bdd_nodes = Compact.Preprocess.num_bdd_nodes bg;
    bdd_lookups = st.cache_lookups;
    bdd_hits = st.cache_hits;
    alloc_words;
    kernel;
  }

(* Fisher–Yates over a seeded state.  A pass visits the designs in a
   seeded order, so different seeds exercise different allocation
   histories while the designs stay the same. *)
let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The quality tuple the determinism gate compares. *)
let tuple o = o.s, o.d, o.vh, o.path

let key o = Printf.sprintf "%s@%g" o.spec.fname o.spec.gamma

let pp_tuple o =
  Printf.sprintf "%s S=%d D=%d VH=%d path=%s" (key o) o.s o.d o.vh (String.concat "->" o.path)
