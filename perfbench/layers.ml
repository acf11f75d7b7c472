(* Fold a drained trace into per-layer totals and self times.

   Spans come from two places.  The bench wraps each public call it
   makes in a span of its own ([design], [bdd-build], [preprocess],
   [synthesize-graph], [verify]); the program's existing spans
   ([labeling], [rung:*], [branch-bound], [lp-relax], [mapping]) nest
   under them.  A span's self time is its duration minus the time its
   direct children cover; with [jobs = 1] every span lives on one
   domain, so children never overlap. *)

type t = {
  total : (string * float) list;  (** span name → summed duration, s *)
  count : (string * int) list;  (** span name → number of spans *)
  self : (string * float) list;  (** layer → summed self time, s *)
  counters : (string * float) list;  (** program counters *)
}

(* Which layer a span's self time belongs to.  The labeling layer
   (core/label_* and lib/graphs) owns the [labeling] and [rung:*]
   spans; [branch-bound] is milp and [lp-relax] is lp. *)
let layer_of name =
  match name with
  | "bdd-build" -> "bdd"
  | "preprocess" -> "preprocess"
  | "labeling" | "synthesize-graph" -> "labeling"
  | _ when String.starts_with ~prefix:"rung:" name -> "labeling"
  | "branch-bound" -> "milp"
  | "lp-relax" -> "lp"
  | "mapping" -> "mapping"
  | "verify" -> "verify"
  | "circuits" -> "circuits"
  | "baseline" -> "baseline"
  | _ -> "unattributed"

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

let fold (snap : Obs.snapshot) =
  let rows = Obs.Agg.phases snap in
  let key (r : Obs.Agg.row) = if r.r_path = "" then r.r_name else r.r_path ^ "/" ^ r.r_name in
  let children = Hashtbl.create 16 in
  List.iter (fun (r : Obs.Agg.row) -> bump children r.r_path r.r_total) rows;
  let total = Hashtbl.create 16 and count = Hashtbl.create 16 and self = Hashtbl.create 16 in
  List.iter
    (fun (r : Obs.Agg.row) ->
       bump total r.r_name r.r_total;
       bump count r.r_name (float_of_int r.r_count);
       let inner = Option.value (Hashtbl.find_opt children (key r)) ~default:0. in
       bump self (layer_of r.r_name) (r.r_total -. inner))
    rows;
  let to_list tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  {
    total = to_list total;
    count = List.map (fun (k, v) -> k, int_of_float v) (to_list count);
    self = to_list self;
    counters = snap.counters;
  }

let total t name = Option.value (List.assoc_opt name t.total) ~default:0.
let count t name = Option.value (List.assoc_opt name t.count) ~default:0
let self t layer = Option.value (List.assoc_opt layer t.self) ~default:0.
let counter t name = Option.value (List.assoc_opt name t.counters) ~default:0.

(* Sum of the program's [rung:*] spans of one solver. *)
let rung t solver = total t ("rung:" ^ solver)
