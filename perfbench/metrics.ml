(* Every metric the bench reports, with its unit.  BENCHMARK.json lists
   the same names; the smoke mode checks that the two agree. *)

let end_to_end =
  [
    "synth_wall_s", "s";
    "objective_ratio", "ratio";
    "semiperimeter_ratio", "ratio";
    "optimal_ratio", "ratio";
    "rungs_per_design", "count";
    "serve_p50_ms", "ms";
    "serve_p95_ms", "ms";
    "serve_rps", "1/s";
    "setup_s", "s";
    "peak_rss_mb", "MB";
  ]

let per_layer =
  [
    "lp.relax_s", "s";
    "lp.relax_count", "count";
    "milp.nodes", "count";
    "milp.self_s", "s";
    "graphs.vc_nodes", "count";
    "heuristic.rounds", "count";
    "budget.exhausted", "count";
    "labeling.s", "s";
    "labeling.self_s", "s";
    "labeling.rung.mip_s", "s";
    "labeling.rung.heuristic_s", "s";
    "labeling.rung.oct-greedy_s", "s";
    "labeling.alloc_mw", "Mword";
    "verify.s", "s";
    "verify.points", "count";
    "bdd.build_s", "s";
    "bdd.nodes", "count";
    "bdd.cache_hit_ratio", "ratio";
    "preprocess.s", "s";
    "mapping.s", "s";
    "circuits.s", "s";
    "baseline.s", "s";
    "unattributed_s", "s";
    "fallback_ratio", "ratio";
    "error_ratio", "ratio";
    "serve.hit_p50_ms", "ms";
    "serve.miss_p50_ms", "ms";
    "serve.hit_ratio", "ratio";
    "serve.wire_ms", "ms";
    "serve.samples", "count";
    "server.request_p50_ms", "ms";
    "server.solve_p50_ms", "ms";
    "server.verify_p50_ms", "ms";
    "server.cache-probe_p50_ms", "ms";
    "server.batch_size_p50", "count";
    "sock.queue_depth_max", "count";
    "server.solves", "count";
    "server.coalesced", "count";
    "server.rejected", "count";
    "persist.appends", "count";
    "persist.journal_bytes", "bytes";
    "pool.idle_waits", "count";
    "trace.overhead_ratio", "ratio";
  ]

let finite x = if Float.is_finite x then x else 0.

(* The result line: [table] names every metric of the run's kind.  An
   end-to-end metric must be measured ([strict]); a layer the workload
   does not exercise reads 0. *)
let result_json ~strict ~attempted ~failed ~table values =
  let metric (name, unit_) =
    let v =
      match List.assoc_opt name values with
      | Some v -> v
      | None when strict -> failwith ("metric not measured: " ^ name)
      | None -> 0.
    in
    name, Obs.Json.Obj [ "value", Obs.Json.Num (finite v); "unit", Obs.Json.Str unit_ ]
  in
  Obs.Json.Obj
    [
      "correct", Obs.Json.Bool (failed = 0);
      "attempted", Obs.Json.Num (float_of_int attempted);
      "failed", Obs.Json.Num (float_of_int failed);
      "metrics", Obs.Json.Obj (List.map metric table);
    ]
