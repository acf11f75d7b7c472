(* The COMPACT benchmark: three workloads, end-to-end metrics from an
   untraced run and per-layer metrics from a traced one.  See
   perfbench/README.md for the workloads, the metric -> layer table and
   how to run it.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
                   [--smoke] [--cli COMPACT_CLI] [--out DIR]
     bench.exe selftest
     bench.exe compare OLD NEW

   [run] prints progress lines and, last, one JSON result line. *)

module J = Obs.Json

let per_pass n x = if n = 0 then 0. else x /. float_of_int n
let ms_of secs = secs *. 1e3


let write_trace ~out ~workload snap =
  let file = Filename.concat out (Printf.sprintf "trace-%s.jsonl" workload) in
  Obs.Export.write_jsonl file snap;
  (* Round-trip the export, so a trace the replay tools cannot read is
     caught here. *)
  ignore (Obs.Export.parse_jsonl (In_channel.with_open_bin file In_channel.input_all));
  Printf.printf "trace: %d events -> %s\n" (List.length snap.Obs.events) file

(* ------------------------------------------------------------------ *)
(* mip-exact and suite *)

type pass = { wall : float; outcomes : Insynth.outcome list; traced : bool }

(* The recorded mip-exact quality tuples, one [Insynth.pp_tuple] line
   per design, relative to the root of the checkout.  A change that
   legitimately changes a design updates this file. *)
let expected_tuples_file = "perfbench/mip-exact.tuples"

let expected_tuples () =
  match In_channel.with_open_text expected_tuples_file In_channel.input_lines with
  | exception Sys_error e ->
    Printf.printf "FAIL cannot read the recorded tuples: %s\n" e;
    []
  | lines ->
    List.filter_map
      (fun l -> match String.index_opt l ' ' with Some i -> Some (String.sub l 0 i, l) | None -> None)
      lines

let run_insynth ~workload ~kind ~seed ~seconds ~trace ~smoke ~out =
  (* Set-up is repeated (the cheap mip-exact one also between passes,
     so its samples span the run) and reported as the median.  It stays
     raw: most of the mip-exact set-up is a fork, whose cost does not
     follow the kernel, and the suite set-up is one 15 s sample that
     phases change within. *)
  let setup_reps, between = if smoke then 1, 0 else match kind with `Mip_exact -> 5, 2 | `Suite -> 1, 0 in
  Obs.set_enabled trace;
  let setup_times = ref [] in
  let rec setup reps =
    let t0 = Obs.Clock.now () in
    let specs = Insynth.setup ~smoke kind in
    setup_times := (Obs.Clock.now () -. t0) :: !setup_times;
    if reps > 1 then setup (reps - 1) else specs
  in
  let specs = setup setup_reps in
  let setup_layers = Layers.fold (Obs.drain ()) in
  Obs.set_enabled false;
  Printf.printf "%s: %d designs, set-up %.3f s\n%!" workload (List.length specs) (List.hd !setup_times);
  (* Passes alternate untraced/traced in a traced run, which needs one of
     each.  Otherwise passes repeat until the next one would overrun, at
     least [min_passes] times so that every design has a best of k. *)
  let min_passes = if trace then 2 else if smoke then 1 else match kind with `Mip_exact -> 3 | `Suite -> 2 in
  let t_start = Obs.Clock.now () in
  let passes = ref [] and folds = ref [] and last_snap = ref None in
  let rec go k =
    let traced = trace && k mod 2 = 1 in
    if k > 0 && between > 0 && not trace then ignore (setup between);
    Obs.set_enabled traced;
    let t0 = Obs.Clock.now () in
    let outcomes = List.map (Insynth.synth_one ~seed) (Insynth.shuffle (Crossbar.Rng.state seed ("perfbench-order", k)) specs) in
    let wall = Obs.Clock.now () -. t0 in
    Obs.set_enabled false;
    if traced then begin
      let snap = Obs.drain () in
      folds := Layers.fold snap :: !folds;
      last_snap := Some snap
    end;
    passes := { wall; outcomes; traced } :: !passes;
    Printf.printf "pass %d%s: %.3f s\n%!" k (if traced then " (traced)" else "") wall;
    let elapsed = Obs.Clock.now () -. t_start in
    if k + 1 < min_passes || ((not smoke) && elapsed +. wall <= seconds) then go (k + 1)
  in
  go 0;
  let passes = List.rev !passes in
  (* Correctness and determinism gate: every design verifies, and each
     design's (S, D, #VH, solver path) is the same in every pass. *)
  let first = (List.hd passes).outcomes in
  let reference = List.map (fun o -> Insynth.key o, Insynth.tuple o) first in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun p ->
       List.iter
         (fun (o : Insynth.outcome) ->
            incr attempted;
            let same = kind = `Suite || List.assoc (Insynth.key o) reference = Insynth.tuple o in
            if not o.verified then Printf.printf "FAIL %s: design does not verify\n" (Insynth.key o);
            if not same then Printf.printf "FAIL %s: quality tuple changed between passes\n" (Insynth.pp_tuple o);
            if not (o.verified && same) then incr failed)
         p.outcomes)
    passes;
  let sorted = List.sort (fun a b -> compare (Insynth.key a) (Insynth.key b)) first in
  let digest = Digest.to_hex (Digest.string (String.concat "\n" (List.map Insynth.pp_tuple sorted))) in
  Printf.printf "quality digest %s over %d designs\n" digest (List.length sorted);
  (* Across runs: every mip-exact tuple must equal the one recorded in
     [expected_tuples_file]. *)
  if kind = `Mip_exact then begin
    let expected = expected_tuples () in
    List.iter
      (fun o ->
         let line = Insynth.pp_tuple o in
         Printf.printf "  %s\n" line;
         match List.assoc_opt (Insynth.key o) expected with
         | Some e when e = line -> ()
         | e ->
           incr failed;
           Printf.printf "FAIL %s: expected %s\n" line (Option.value e ~default:"no recorded tuple"))
      sorted
  end;
  let ratio f = Stats.geomean (List.map f first) in
  let share p = per_pass (List.length first) (float_of_int (List.length (List.filter p first))) in
  let plain = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let walls ps = Array.of_list (List.map (fun p -> p.wall) ps) in
  if trace then begin
    let n = List.length traced in
    let sum f = List.fold_left (fun acc l -> acc +. f l) 0. !folds in
    let per f = per_pass n (sum f) in
    let outcome_sum ps f =
      per_pass (List.length ps)
        (List.fold_left (fun acc p -> List.fold_left (fun a o -> a +. f o) acc p.outcomes) 0. ps)
    in
    let self_total =
      List.fold_left
        (fun acc layer -> acc +. per (fun l -> Layers.self l layer))
        0. [ "bdd"; "preprocess"; "labeling"; "milp"; "lp"; "mapping"; "verify" ]
    in
    let lookups = outcome_sum traced (fun o -> float_of_int o.bdd_lookups) in
    let values =
      [
        "lp.relax_s", per (fun l -> Layers.total l "lp-relax");
        "lp.relax_count", per (fun l -> float_of_int (Layers.count l "lp-relax"));
        "milp.nodes", per (fun l -> Layers.counter l "bb.nodes");
        "milp.self_s", per (fun l -> Layers.self l "milp");
        "graphs.vc_nodes", per (fun l -> Layers.counter l "vc.nodes");
        "heuristic.rounds", per (fun l -> Layers.counter l "heuristic.rounds");
        "budget.exhausted", per (fun l -> Layers.counter l "budget.exhausted");
        "labeling.s", per (fun l -> Layers.total l "labeling");
        "labeling.self_s", per (fun l -> Layers.self l "labeling");
        "labeling.rung.mip_s", per (fun l -> Layers.rung l "mip");
        "labeling.rung.heuristic_s", per (fun l -> Layers.rung l "heuristic");
        "labeling.rung.oct-greedy_s", per (fun l -> Layers.rung l "oct-greedy");
        "labeling.alloc_mw", outcome_sum plain (fun o -> o.alloc_words) /. 1e6;
        "verify.s", per (fun l -> Layers.total l "verify");
        "verify.points", outcome_sum traced (fun o -> float_of_int o.points);
        "bdd.build_s", per (fun l -> Layers.total l "bdd-build");
        "bdd.nodes", outcome_sum traced (fun o -> float_of_int o.bdd_nodes);
        ( "bdd.cache_hit_ratio",
          if lookups = 0. then 0. else outcome_sum traced (fun o -> float_of_int o.bdd_hits) /. lookups );
        "preprocess.s", per (fun l -> Layers.total l "preprocess");
        "mapping.s", per (fun l -> Layers.total l "mapping");
        "circuits.s", per_pass setup_reps (Layers.total setup_layers "circuits");
        "baseline.s", per_pass setup_reps (Layers.total setup_layers "baseline");
        "unattributed_s", Stats.mean (List.map (fun p -> p.wall) traced) -. self_total;
        "fallback_ratio", share (fun o -> List.length o.path > 1);
        "error_ratio", per_pass !attempted (float_of_int !failed);
        "trace.overhead_ratio", Stats.median (walls traced) /. Stats.median (walls plain);
      ]
    in
    Option.iter (write_trace ~out ~workload) !last_snap;
    Metrics.result_json ~strict:false ~attempted:!attempted ~failed:!failed ~table:Metrics.per_layer values
  end
  else begin
    (* One time per design.  On mip-exact, deadline-free CPU work, each
       sample is normalized to nominal host speed with the kernels of its
       pass and the design reports the median over passes.  On suite the
       deadline-bound rungs take the same wall time at any host speed, so
       samples stay raw and the design reports its best pass. *)
    let per_design =
      List.map
        (fun o ->
           let samples =
             List.concat_map
               (fun p ->
                  let kernels = List.map (fun (o' : Insynth.outcome) -> o'.kernel) p.outcomes in
                  List.filter_map
                    (fun (o' : Insynth.outcome) ->
                       if Insynth.key o' <> Insynth.key o then None
                       else Some (if kind = `Mip_exact then Stats.normalize o'.secs kernels else o'.secs))
                    p.outcomes)
               passes
             |> Array.of_list
           in
           if kind = `Mip_exact then Stats.median samples else Array.fold_left Float.min infinity samples)
        first
    in
    let lat = Array.of_list (List.map ms_of per_design) in
    let wall = List.fold_left ( +. ) 0. per_design in
    Printf.printf "latency: %d designs x %d passes (p95 has %d beyond it); raw median pass %.3f s\n"
      (Array.length lat) (List.length passes) (Stats.beyond (Array.length lat) 95) (Stats.median (walls passes));
    let values =
      [
        "synth_wall_s", wall;
        ( "objective_ratio",
          ratio (fun o ->
              let gamma = o.spec.gamma in
              Stats.objective ~gamma ~s:o.s ~d:o.d
              /. Stats.objective ~gamma ~s:o.spec.stair_s ~d:o.spec.stair_d) );
        "semiperimeter_ratio", ratio (fun o -> float_of_int o.s /. float_of_int o.spec.stair_s);
        "optimal_ratio", share (fun o -> o.optimal);
        "rungs_per_design", Stats.mean (List.map (fun o -> float_of_int (List.length o.Insynth.path)) first);
        "serve_p50_ms", Stats.percentile lat 50;
        "serve_p95_ms", Stats.percentile lat 95;
        "serve_rps", float_of_int (Array.length lat) /. wall;
        "setup_s", Stats.median (Array.of_list !setup_times);
        "peak_rss_mb", Serve.peak_rss_mb 0;
      ]
    in
    Metrics.result_json ~strict:true ~attempted:!attempted ~failed:!failed ~table:Metrics.end_to_end values
  end

(* ------------------------------------------------------------------ *)
(* serve-mixed *)

let run_serve ~seed ~seconds ~trace ~smoke ~cli ~out =
  let dir = Filename.concat out (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Serve.rm_rf dir;
  Unix.mkdir dir 0o755;
  let hot = Array.init Serve.hot_count (fun i -> Serve.gen_expr (Crossbar.Rng.state seed ("serve-hot", i)) Serve.depth) in
  (* Set-up: spawn until the first health reply, several times; the
     last daemon serves the run. *)
  let spawns = if smoke then 1 else Serve.setup_spawns in
  let daemons = List.init spawns (fun k -> Serve.spawn ~cli ~dir k) in
  let setup_s = Stats.median (Array.of_list (List.map snd daemons)) in
  let daemon = fst (List.nth daemons (spawns - 1)) in
  List.iteri (fun k (d, _) -> if k < spawns - 1 then Serve.stop d) daemons;
  Printf.printf "serve-mixed: compactd -j %d up, set-up %.3f s (median of %d spawns)\n%!" Serve.server_jobs setup_s
    spawns;
  let seconds = if smoke then 0.5 else seconds in
  let rss_samples = ref [] in
  let on_reply n =
    if n mod Serve.rss_every = 0 && n <= Serve.rss_replies then
      rss_samples := Serve.peak_rss_mb daemon.pid :: !rss_samples
  in
  let samples, rounds, wall, kernels =
    Serve.loop ~seed ~hot ~socket:daemon.socket ~seconds ~traced:(fun k -> trace && k mod 2 = 1) ~on_reply
  in
  let loop_snap = Obs.drain () in
  let metrics_reply = J.parse (Serve.request daemon {|{"op":"metrics","id":0}|}) in
  let stats_reply = J.parse (Serve.request daemon {|{"op":"stats","id":0}|}) in
  (* Short (smoke) runs take no sample. *)
  let rss = match !rss_samples with [] -> Serve.peak_rss_mb daemon.pid | l -> Stats.mean l in
  Printf.printf "daemon peak RSS %.1f MB (mean of %d samples), %.1f MB at the end\n" rss
    (List.length !rss_samples)
    (Serve.peak_rss_mb daemon.pid);
  Serve.stop daemon;
  Obs.set_enabled trace;
  let checked = Serve.check ~seed samples in
  let check_snap = Obs.drain () in
  Obs.set_enabled false;
  Serve.rm_rf dir;
  let attempted = List.length samples in
  let failed = checked.failed in
  let lat = Array.of_list (List.map (fun (s, _) -> s.Serve.ms) checked.samples) in
  let hits, misses = Stats.split_hits (List.map (fun (s, cached) -> cached, s.Serve.ms) checked.samples) in
  Printf.printf "serve-mixed: %d requests over %d connections in %.3f s, %d hits, %d misses, %d distinct designs\n"
    attempted Serve.clients wall (Array.length hits) (Array.length misses) (List.length checked.designs);
  Printf.printf "latency samples %d (p95 has %d beyond it)\n" (Array.length lat) (Stats.beyond (Array.length lat) 95);
  Printf.printf "raw p50 %.3f ms (hits %.3f, misses %.3f), p95 %.3f ms, %.1f req/s, round %.4f s; kernel %.3f ms (mean of %d)\n"
    (Stats.percentile lat 50) (Stats.percentile hits 50) (Stats.percentile misses 50) (Stats.percentile lat 95)
    (float_of_int (Array.length lat) /. wall)
    (Stats.mean (List.map fst rounds)) (ms_of (Stats.mean kernels)) (List.length kernels);
  let designs = checked.designs in
  if trace then begin
    let view = Option.get (Obs.Metrics.of_json metrics_reply) in
    let counter name = float_of_int (Option.value (List.assoc_opt name view.m_counters) ~default:0) in
    let hist name = List.find_opt (fun h -> h.Obs.Metrics.hv_name = name) view.m_hists in
    let hist_ms name =
      match hist name with Some h -> Stats.hist_quantile ~lo:0.001 ~sub:4 h.hv_buckets 50 | None -> 0.
    in
    let hist_count f name = match hist name with Some h -> f h | None -> 0. in
    let stat path =
      List.fold_left (fun j k -> Option.bind j (J.member k)) (Some stats_reply) path
      |> function Some (J.Num f) -> f | _ -> 0.
    in
    let round_walls t = Array.of_list (List.filter_map (fun (w, tr) -> if tr = t then Some w else None) rounds) in
    let hit_p50 = Stats.percentile hits 50 in
    let check_layers = Layers.fold check_snap in
    let values =
      [
        "milp.nodes", counter "bb.nodes";
        "graphs.vc_nodes", counter "vc.nodes";
        "heuristic.rounds", counter "heuristic.rounds";
        "budget.exhausted", counter "budget.exhausted";
        "verify.s", Layers.total check_layers "verify";
        "verify.points", float_of_int checked.verify_points;
        "error_ratio", per_pass attempted (float_of_int failed);
        "fallback_ratio", per_pass (List.length designs) (float_of_int (List.length (List.filter (fun (c : Serve.checked) -> c.rungs > 1) designs)));
        "serve.hit_p50_ms", hit_p50;
        "serve.miss_p50_ms", Stats.percentile misses 50;
        "serve.hit_ratio", per_pass (Array.length lat) (float_of_int (Array.length hits));
        "serve.wire_ms", hit_p50 -. hist_ms "server.request-ms";
        "serve.samples", float_of_int (Array.length lat);
        "server.request_p50_ms", hist_ms "server.request-ms";
        "server.solve_p50_ms", hist_ms "server.solve-ms";
        "server.verify_p50_ms", hist_ms "server.verify-ms";
        "server.cache-probe_p50_ms", hist_ms "server.cache-probe-ms";
        "server.batch_size_p50", hist_count (fun h -> h.hv_p50) "server.batch-size";
        "sock.queue_depth_max", hist_count (fun h -> h.hv_max) "sock.queue-depth";
        "server.solves", counter "server.solves";
        "server.coalesced", counter "server.coalesced";
        "server.rejected", stat [ "server"; "rejected" ];
        "persist.appends", counter "persist.appends";
        "persist.journal_bytes", stat [ "persist"; "journal_bytes" ];
        "pool.idle_waits", counter "pool.idle_waits";
        "trace.overhead_ratio", Stats.median (round_walls true) /. Stats.median (round_walls false);
      ]
    in
    write_trace ~out ~workload:"serve-mixed" { Obs.events = loop_snap.events @ check_snap.events; counters = [] };
    Metrics.result_json ~strict:false ~attempted ~failed ~table:Metrics.per_layer values
  end
  else begin
    let ratio f = Stats.geomean (List.map f designs) in
    let gamma = Compact.Pipeline.default_options.gamma in
    (* Times are scaled to nominal host speed by the kernels timed in
       the loop's pauses, as on mip-exact. *)
    let values =
      [
        "synth_wall_s", Stats.normalize (Stats.mean (List.map fst rounds)) kernels;
        ( "objective_ratio",
          ratio (fun (c : Serve.checked) ->
              Stats.objective ~gamma ~s:c.s ~d:c.d /. Stats.objective ~gamma ~s:c.stair_s ~d:c.stair_d) );
        "semiperimeter_ratio", ratio (fun (c : Serve.checked) -> float_of_int c.s /. float_of_int c.stair_s);
        "optimal_ratio", per_pass (List.length designs) (float_of_int (List.length (List.filter (fun (c : Serve.checked) -> c.optimal) designs)));
        "rungs_per_design", Stats.mean (List.map (fun (c : Serve.checked) -> float_of_int c.rungs) designs);
        "serve_p50_ms", Stats.normalize (Stats.percentile lat 50) kernels;
        "serve_p95_ms", Stats.normalize (Stats.percentile lat 95) kernels;
        "serve_rps", float_of_int (Array.length lat) /. Stats.normalize wall kernels;
        "setup_s", setup_s;
        "peak_rss_mb", rss;
      ]
    in
    Metrics.result_json ~strict:true ~attempted ~failed ~table:Metrics.end_to_end values
  end

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe run --workload mip-exact|suite|serve-mixed --seed N --seconds S --trace 0|1 \
     [--smoke] [--cli PATH] [--out DIR]\n\
    \       bench.exe selftest\n\
    \       bench.exe compare OLD NEW";
  exit 2

let run args =
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
  let trace = get "trace" = "1" and smoke = List.mem_assoc "smoke" opts in
  let out = Option.value (List.assoc_opt "out" opts) ~default:"." in
  let workload = get "workload" in
  at_exit Serve.kill_live;
  let result =
    match workload with
    | "mip-exact" -> run_insynth ~workload ~kind:`Mip_exact ~seed ~seconds ~trace ~smoke ~out
    | "suite" -> run_insynth ~workload ~kind:`Suite ~seed ~seconds ~trace ~smoke ~out
    | "serve-mixed" -> run_serve ~seed ~seconds ~trace ~smoke ~cli:(get "cli") ~out
    | _ -> usage ()
  in
  let line = J.to_string result in
  Out_channel.with_open_bin
    (Filename.concat out (Printf.sprintf "result-%s-trace%d.json" workload (Bool.to_int trace)))
    (fun oc -> output_string oc (J.to_string (J.Obj [ "workload", J.Str workload; "seed", J.Num (float_of_int seed); "result", result ]) ^ "\n"));
  print_endline line

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | [ "selftest" ] -> exit (Selftest.run ())
  | [ "compare"; old_; new_ ] -> exit (Compare.run old_ new_)
  | _ -> usage ()
