(* Self-tests of the bench's own arithmetic and parsing: nearest-rank
   percentiles and their sample counts, geomean ratios, the hit/miss
   split, histogram interpolation, the per-layer self-time fold and the
   wire-design round trip.  [bench.exe selftest] exits non-zero on the
   first failure. *)

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let percentiles () =
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  check "p50 of 1..10 is 5" (Stats.percentile xs 50 = 5.);
  check "p90 of 1..10 is 9" (Stats.percentile xs 90 = 9.);
  check "p95 of 1..10 is 10" (Stats.percentile xs 95 = 10.);
  check "p0 is the minimum" (Stats.percentile xs 0 = 1.);
  check "median of one sample" (Stats.median [| 3. |] = 3.);
  check "empty percentile is 0" (Stats.percentile [||] 50 = 0.);
  check "p95 of 200 has 10 beyond" (Stats.beyond 200 95 = 10);
  check "p95 of 20 has 1 beyond" (Stats.beyond 20 95 = 1);
  check "p50 of 7 has 3 beyond" (Stats.beyond 7 50 = 3);
  check "nothing beyond an empty sample" (Stats.beyond 0 95 = 0)

let ratios () =
  check "geomean of 1 and 4 is 2" (close (Stats.geomean [ 1.; 4. ]) 2.);
  check "geomean of equal ratios" (close (Stats.geomean [ 0.5; 0.5; 0.5 ]) 0.5);
  check "geomean is below the mean" (Stats.geomean [ 0.1; 1. ] < Stats.mean [ 0.1; 1. ]);
  check "objective at gamma 1 is S" (close (Stats.objective ~gamma:1. ~s:10 ~d:6) 10.);
  check "objective at gamma 0 is D" (close (Stats.objective ~gamma:0. ~s:10 ~d:6) 6.);
  check "objective at gamma 0.5" (close (Stats.objective ~gamma:0.5 ~s:10 ~d:6) 8.);
  let k = Stats.kernel_nominal in
  check "a time measured at half speed normalizes to half" (close (Stats.normalize 2. [ 2. *. k; 2. *. k ]) 1.);
  check "nominal speed leaves a time as it is" (close (Stats.normalize 3. [ 0.5 *. k; 1.5 *. k ]) 3.)

let split () =
  let hits, misses = Stats.split_hits [ true, 1.; false, 20.; true, 2.; true, 3.; false, 30. ] in
  check "three hits" (hits = [| 1.; 2.; 3. |]);
  check "two misses" (misses = [| 20.; 30. |]);
  check "hit p50" (Stats.percentile hits 50 = 2.);
  check "miss p50" (Stats.percentile misses 50 = 20.)

let histogram () =
  let step = 2. ** 0.25 in
  (* 4 values in the bucket (1, 1.19], rank 2 of 4 -> halfway up it. *)
  let b = [ Some step, 4 ] in
  check "interpolated inside the bucket" (close (Stats.hist_quantile ~lo:0.001 ~sub:4 b 50) (1. +. ((step -. 1.) /. 2.)));
  check "underflow bucket starts at 0" (close (Stats.hist_quantile ~lo:0.001 ~sub:4 [ Some 0.001, 2 ] 50) 0.0005);
  check "rank in the second bucket"
    (close (Stats.hist_quantile ~lo:0.001 ~sub:4 [ Some 1., 1; Some 2., 1 ] 100) 2.);
  check "overflow reports the last bound" (Stats.hist_quantile ~lo:0.001 ~sub:4 [ Some 2., 1; None, 3 ] 90 = 2.);
  check "empty histogram" (Stats.hist_quantile ~lo:0.001 ~sub:4 [] 50 = 0.)

let ev path name start dur =
  { Obs.ev_path = path; ev_name = name; ev_instant = false; ev_start = start; ev_dur = dur; ev_domain = 0;
    ev_seq = 0; ev_attrs = [] }

let self_time () =
  let snap =
    {
      Obs.events =
        [
          ev "" "design" 0. 10.;
          ev "design" "bdd-build" 0. 1.;
          ev "design" "synthesize-graph" 1. 7.;
          ev "design/synthesize-graph" "labeling" 1. 6.;
          ev "design/synthesize-graph/labeling" "rung:mip" 1. 5.5;
          ev "design/synthesize-graph/labeling/rung:mip" "branch-bound" 1.5 5.;
          ev "design/synthesize-graph/labeling/rung:mip/branch-bound" "lp-relax" 2. 1.5;
          ev "design/synthesize-graph/labeling/rung:mip/branch-bound" "lp-relax" 4. 2.5;
          ev "design/synthesize-graph" "mapping" 7. 0.5;
          ev "design" "verify" 8. 1.5;
        ];
      counters = [ "bb.nodes", 3. ];
    }
  in
  let l = Layers.fold snap in
  check "lp total" (close (Layers.total l "lp-relax") 4.);
  check "lp count" (Layers.count l "lp-relax" = 2);
  check "milp self excludes lp" (close (Layers.self l "milp") 1.);
  check "labeling self: labeling, rung and synthesize-graph" (close (Layers.self l "labeling") 1.5);
  check "unattributed is the design root's own time" (close (Layers.self l "unattributed") 0.5);
  check "self times add up to the root" (close (List.fold_left (fun a (_, v) -> a +. v) 0. l.self) 10.);
  check "rung total" (close (Layers.rung l "mip") 5.5);
  check "counter" (Layers.counter l "bb.nodes" = 3.)

let wire_design () =
  let e = Logic.Parse.expr "(a & b) | ~c" in
  let r = Compact.Pipeline.synthesize_expr ~name:"f" e in
  let j = Server.Protocol.design_json r.design in
  let d = Serve.design_of_json j in
  check "wire design round trip" (Obs.Json.to_string (Server.Protocol.design_json d) = Obs.Json.to_string j);
  let reply = {|{"id":7,"ok":true,"cached":true,"coalesced":false,"key":"k1","design":{},"report":{}}|} in
  check "payload strips the envelope" (Serve.payload reply = Some {|"key":"k1","design":{},"report":{}|});
  check "no payload on errors" (Serve.payload {|{"id":1,"ok":false}|} = None)

let run () =
  percentiles ();
  ratios ();
  split ();
  histogram ();
  self_time ();
  wire_design ();
  if !failures = 0 then (print_endline "selftest: all checks passed"; 0)
  else (Printf.printf "selftest: %d checks failed\n" !failures; 1)
