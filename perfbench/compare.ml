(* Layer diff: [bench.exe compare OLD NEW] lines up two sets of results
   (a result-*.json file each, or directories of them) and prints, per
   workload and run kind, every metric with both bases and the ratio
   new/old — so a perf change can show which layer its saving came
   from. *)

module J = Obs.Json

(* (workload, kind) -> (metric, (value, unit)) list *)
let load path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> String.starts_with ~prefix:"result-" f && Filename.check_suffix f ".json")
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.concat_map
    (fun file ->
       In_channel.with_open_bin file In_channel.input_lines
       |> List.filter (fun l -> String.trim l <> "")
       |> List.map (fun line ->
           let j = J.parse line in
           let str k = match J.member k j with Some (J.Str s) -> s | _ -> failwith (file ^ ": no " ^ k) in
           let result = Option.get (J.member "result" j) in
           let metrics = match J.member "metrics" result with Some (J.Obj m) -> m | _ -> [] in
           let kind =
             if List.exists (fun (k, _) -> List.mem_assoc k Metrics.per_layer) metrics then "per-layer"
             else "end-to-end"
           in
           ( (str "workload", kind),
             List.map
               (fun (k, v) ->
                  let num = match J.member "value" v with Some (J.Num f) -> f | _ -> 0. in
                  let unit_ = match J.member "unit" v with Some (J.Str u) -> u | _ -> "" in
                  k, (num, unit_))
               metrics )))
    files

let run old_path new_path =
  match load old_path, load new_path with
  | exception (Sys_error m | Failure m | J.Parse_error m) ->
    prerr_endline ("compare: " ^ m);
    2
  | olds, news ->
    let keys = List.sort_uniq compare (List.map fst olds @ List.map fst news) in
    List.iter
      (fun ((workload, kind) as key) ->
         match List.assoc_opt key olds, List.assoc_opt key news with
         | Some o, Some n ->
           Printf.printf "\n== %s (%s)\n%-28s %-6s %14s %14s %8s\n" workload kind "metric" "unit" "old" "new"
             "new/old";
           List.iter
             (fun (name, (ov, unit_)) ->
                match List.assoc_opt name n with
                | Some (nv, _) ->
                  let ratio = if ov = 0. then (if nv = 0. then "=" else "new") else Printf.sprintf "%.3f" (nv /. ov) in
                  Printf.printf "%-28s %-6s %14.6g %14.6g %8s\n" name unit_ ov nv ratio
                | None -> Printf.printf "%-28s %-6s %14.6g %14s %8s\n" name unit_ ov "-" "gone")
             o
         | _ -> Printf.printf "\n== %s (%s): only in one side\n" workload kind)
      keys;
    0
