(* The [serve-mixed] workload: compactd as a child process, driven by a
   closed loop of [clients] connections from this process.

   Each connection sends rounds of [round_hot] repeats of a small hot
   set plus [round_fresh] fresh random expressions, in a seeded order.
   Hits read the cache (parse -> SBDD -> fingerprint -> probe); misses
   solve, verify and append to the journal.  With three hits in four
   requests the median sits well inside the hit population and p95
   inside the misses.  The expressions have the shape of the program's
   own load generator ([Server.Loadgen]); only the hot fraction is
   higher. *)

module J = Obs.Json

let clients = 2
let hot_count = 8
let round_hot = 12
let round_fresh = 4
let server_jobs = 2
let setup_spawns = 5

(* The daemon's resident set grows with the requests it has served
   (about 9 MB per 1000 replies, in steps set by its major GC), so its
   peak is not read at the end of a run whose length in requests follows
   the host's speed.  It is sampled every [rss_every] replies up to
   [rss_replies] and reported as the mean of the samples; a single
   sample at a fixed reply count moved by 0.17-0.24 (IQR/median) over
   eight seeds with the step timing. *)
let rss_replies = 3000
let rss_every = 100

(* Every [pause_every] seconds the loop lets both connections drain and
   times [pause_kernels] runs of [Stats.kernel] while the daemon is
   idle, to track the host's speed through the run; the pauses are
   taken out of every time the loop reports.  A kernel timed in the
   client while the daemon works measures contention, not speed. *)
let pause_every = 0.5
let pause_kernels = 5

(* Full binary trees of depth 4, as [Server.Loadgen] draws them, but
   over 6 variables instead of its 8.  Over 8 variables a few fresh
   expressions take seconds to solve, and one of them moves a whole
   run's tail; over 6 a miss still costs several times the wire. *)
let vars = [| "a"; "b"; "c"; "d"; "e"; "g" |]

let rec gen_expr st depth =
  if depth = 0 then
    (if Random.State.bool st then "~" else "") ^ vars.(Random.State.int st (Array.length vars))
  else
    let op = [| " & "; " | "; " ^ " |].(Random.State.int st 3) in
    "(" ^ gen_expr st (depth - 1) ^ op ^ gen_expr st (depth - 1) ^ ")"

let depth = 4

(* ------------------------------------------------------------------ *)
(* The daemon *)

type daemon = { pid : int; socket : string }

let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Spawn a daemon with a fresh cache directory and wait for its first
   [health] reply; the elapsed time is one set-up sample. *)
let spawn ~cli ~dir k =
  let socket = Filename.concat dir (Printf.sprintf "s%d.sock" k) in
  let cache = Filename.concat dir (Printf.sprintf "cache%d" k) in
  rm_rf socket;
  rm_rf cache;
  let log = Unix.openfile (Filename.concat dir (Printf.sprintf "serve%d.log" k))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = Obs.Clock.now () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "-j"; string_of_int server_jobs; "--cache-dir"; cache;
         "--flight-file"; "none" |]
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  (* Poll every 0.1-0.2 ms, so the sample follows the daemon's own
     start-up (a few ms) rather than a backoff schedule. *)
  let c = Server.Client.connect ~retries:100_000 ~base:0.0002 ~cap:0.0002 socket in
  let reply = Server.Client.request c {|{"op":"health","id":0}|} in
  let secs = Obs.Clock.now () -. t0 in
  Server.Client.close c;
  if J.member "ok" (J.parse reply) <> Some (J.Bool true) then failwith ("health: " ^ reply);
  { pid; socket }, secs

let request d line =
  let c = Server.Client.connect d.socket in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> Server.Client.request c line)

(* Ask for a graceful shutdown and reap the child, killing it if it has
   not exited within ten seconds. *)
let stop d =
  (try ignore (request d {|{"op":"shutdown","id":0}|}) with _ -> ());
  let t0 = Obs.Clock.now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Obs.Clock.now () -. t0 < 10. ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  (try reap () with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) d.pid) !live

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> 0.
  | lines ->
    List.fold_left
      (fun acc l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> float_of_string kb /. 1024.
             | [] -> acc)
         | _ -> acc)
      0. lines

(* ------------------------------------------------------------------ *)
(* The closed loop *)

type sample = { expr : string; ms : float; reply : string }

type conn = {
  fd : Unix.file_descr;
  idx : int;
  buf : Buffer.t;
  mutable todo : string list;  (** rest of the current round *)
  mutable round : int;
  mutable round_start : float;
  mutable round_paused : float;  (** pause time inside the current round *)
  mutable sent_at : float;
  mutable sent_expr : string;
  mutable busy : bool;
}

let round_exprs ~seed ~hot conn round =
  let st = Crossbar.Rng.state seed ("serve-round", conn, round) in
  Insynth.shuffle st
    (List.init round_hot (fun _ -> hot.(Random.State.int st hot_count))
     @ List.init round_fresh (fun _ -> gen_expr st depth))

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

(* Drive the loop until [seconds] have passed, then let the requests in
   flight finish.  [traced k] says whether round [k] runs with tracing
   on (each reply is then recorded as a trace event); [on_reply n] is
   called when the [n]-th reply has arrived.  Returns the samples, the
   completed rounds as (wall, traced), the loop wall and the kernel
   times; the walls exclude the pauses. *)
let loop ~seed ~hot ~socket ~seconds ~traced ~on_reply =
  let conns =
    Array.init clients (fun idx ->
        { fd = connect socket; idx; buf = Buffer.create 4096; todo = []; round = -1;
          round_start = 0.; round_paused = 0.; sent_at = 0.; sent_expr = ""; busy = false })
  in
  let samples = ref [] and rounds = ref [] and next_id = ref 0 and replies = ref 0 in
  let kernels = ref (List.init pause_kernels (fun _ -> Stats.kernel ())) in
  let paused = ref 0. and pause_from = ref None in
  let t0 = Obs.Clock.now () in
  let deadline = t0 +. seconds in
  let next_pause = ref (t0 +. pause_every) in
  let send c =
    (match c.todo with
     | [] ->
       c.round <- c.round + 1;
       c.todo <- round_exprs ~seed ~hot c.idx c.round;
       c.round_start <- Obs.Clock.now ();
       c.round_paused <- 0.
     | _ -> ());
    match c.todo with
    | [] -> assert false
    | expr :: rest ->
      c.todo <- rest;
      incr next_id;
      let line =
        J.to_string
          (J.Obj [ "op", J.Str "synth"; "id", J.Num (float_of_int !next_id); "expr", J.Str expr ])
      in
      c.sent_expr <- expr;
      c.busy <- true;
      Obs.set_enabled (traced c.round);
      c.sent_at <- Obs.Clock.now ();
      write_all c.fd (line ^ "\n") 0
  in
  let chunk = Bytes.create 65536 in
  let receive c =
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then failwith "compactd closed the connection";
    Buffer.add_subbytes c.buf chunk 0 n;
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | None -> ()
    | Some i ->
      let now = Obs.Clock.now () in
      if Obs.enabled () then
        Obs.Span.event ~attrs:[ "conn", string_of_int c.idx; "ms", Printf.sprintf "%.4f" ((now -. c.sent_at) *. 1e3) ] "request";
      samples :=
        { expr = c.sent_expr; ms = (now -. c.sent_at) *. 1e3; reply = String.sub s 0 i }
        :: !samples;
      incr replies;
      on_reply !replies;
      Buffer.clear c.buf;
      c.busy <- false;
      if c.todo = [] then rounds := (now -. c.round_start -. c.round_paused, traced c.round) :: !rounds;
      if now < deadline then
        if now < !next_pause then send c else if !pause_from = None then pause_from := Some now
  in
  Array.iter send conns;
  let rec go () =
    match List.filter (fun c -> c.busy) (Array.to_list conns) with
    | [] when !pause_from <> None ->
      (* Every connection is idle: time the kernel on a quiet host, then
         take the pause out of the loop wall and the rounds in flight. *)
      kernels := List.init pause_kernels (fun _ -> Stats.kernel ()) @ !kernels;
      let now = Obs.Clock.now () in
      let d = now -. Option.get !pause_from in
      paused := !paused +. d;
      Array.iter (fun c -> if c.todo <> [] then c.round_paused <- c.round_paused +. d) conns;
      pause_from := None;
      next_pause := now +. pause_every;
      if now < deadline then Array.iter send conns;
      go ()
    | [] -> ()
    | busy ->
      let ready, _, _ = Unix.select (List.map (fun c -> c.fd) busy) [] [] 30. in
      if ready = [] then failwith "compactd did not reply within 30 s";
      List.iter (fun c -> if List.mem c.fd ready then receive c) busy;
      go ()
  in
  go ();
  let wall = Obs.Clock.now () -. t0 -. !paused in
  Obs.set_enabled false;
  Array.iter (fun c -> Unix.close c.fd) conns;
  List.rev !samples, List.rev !rounds, wall, !kernels

(* ------------------------------------------------------------------ *)
(* Checking replies *)

let literal = function
  | "0" -> Crossbar.Literal.Off
  | "1" -> Crossbar.Literal.On
  | s when String.length s > 1 && s.[0] = '!' -> Crossbar.Literal.Neg (String.sub s 1 (String.length s - 1))
  | s -> Crossbar.Literal.Pos s

let wire s =
  let n = int_of_string (String.sub s 1 (String.length s - 1)) in
  match s.[0] with
  | 'r' -> Crossbar.Design.Row n
  | 'c' -> Crossbar.Design.Col n
  | _ -> failwith ("bad wire " ^ s)

let num j k = match J.member k j with Some (J.Num f) -> int_of_float f | _ -> failwith ("missing " ^ k)
let str = function J.Str s -> s | _ -> failwith "expected a string"
let arr = function J.Arr l -> l | _ -> failwith "expected an array"
let field j k = match J.member k j with Some v -> v | None -> failwith ("missing " ^ k)

(* Rebuild a design from its wire JSON with the public constructor. *)
let design_of_json j =
  let outputs =
    List.map (fun o -> match arr o with [ n; w ] -> str n, wire (str w) | _ -> failwith "output")
      (arr (field j "outputs"))
  in
  let d =
    Crossbar.Design.create ~rows:(num j "rows") ~cols:(num j "cols") ~input:(wire (str (field j "input")))
      ~outputs
  in
  List.iter
    (fun cell ->
       match arr cell with
       | [ J.Num r; J.Num c; J.Str l ] -> Crossbar.Design.set d ~row:(int_of_float r) ~col:(int_of_float c) (literal l)
       | _ -> failwith "cell")
    (arr (field j "cells"));
  d

(* The cacheable payload of a synth reply: everything from ["key"] on,
   i.e. the reply minus its [id]/[cached]/[coalesced] envelope. *)
let payload reply =
  let marker = {|,"key":|} in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length reply then None
    else if String.sub reply i m = marker then Some (String.sub reply (i + 1) (String.length reply - i - 2))
    else find (i + 1)
  in
  find 0

type checked = {
  s : int;
  d : int;
  stair_s : int;
  stair_d : int;
  optimal : bool;
  rungs : int;
}

(* Verify one distinct expression's design against the expression's own
   netlist, and measure it against the staircase reference. *)
let check_design ~seed expr j =
  let design_j = field j "design" and report = field j "report" in
  let design = design_of_json design_j in
  let e = Logic.Parse.expr expr in
  let inputs = Logic.Expr.vars e in
  let out = List.map fst (Crossbar.Design.outputs design) in
  let nl =
    Logic.Netlist.create ~name:"expr" ~inputs ~outputs:out
      (List.map (fun o -> Logic.Netlist.n_expr o e) out)
  in
  let ok =
    Obs.Span.with_ "verify" (fun () ->
        Crossbar.Verify.auto ~seed:(Crossbar.Rng.derive seed expr) ~trials:Insynth.verify_trials design ~inputs
          ~reference:(Logic.Netlist.eval_point nl) ~outputs:out
        = Crossbar.Verify.Ok)
  in
  let stair = (Baseline.Staircase.synthesize nl).Baseline.Staircase.merged in
  ok,
  {
    s = Crossbar.Design.semiperimeter design;
    d = Crossbar.Design.max_dimension design;
    stair_s = Crossbar.Design.semiperimeter stair;
    stair_d = Crossbar.Design.max_dimension stair;
    optimal = J.member "optimal" report = Some (J.Bool true);
    rungs = List.length (arr (field report "solver_path"));
  }

type outcome = {
  samples : (sample * bool) list;  (** sample, cached *)
  failed : int;
  designs : checked list;
  verify_points : int;
}

let check ~seed samples =
  let failed = ref 0 and designs = ref [] and points = ref 0 in
  let by_expr = Hashtbl.create 256 and by_key = Hashtbl.create 256 in
  let fail msg =
    incr failed;
    Printf.printf "serve-mixed: %s\n" msg
  in
  let checked =
    List.filter_map
      (fun smp ->
         match J.parse smp.reply with
         | exception J.Parse_error m ->
           fail ("unparsable reply: " ^ m);
           None
         | j when J.member "ok" j <> Some (J.Bool true) ->
           fail ("error reply: " ^ smp.reply);
           None
         | j -> (
             match payload smp.reply with
             | None ->
               fail ("reply without payload: " ^ smp.reply);
               None
             | Some p ->
               let key = str (field j "key") in
               (match Hashtbl.find_opt by_key key with
                | Some p0 when p0 <> p -> fail ("payload differs for key " ^ key)
                | Some _ -> ()
                | None -> Hashtbl.add by_key key p);
               (match Hashtbl.find_opt by_expr smp.expr with
                | Some p0 -> if p0 <> p then fail ("payload differs for " ^ smp.expr)
                | None -> (
                    Hashtbl.add by_expr smp.expr p;
                    match check_design ~seed smp.expr j with
                    | ok, c ->
                      points := !points + (1 lsl List.length (Logic.Expr.vars (Logic.Parse.expr smp.expr)));
                      if ok then designs := c :: !designs else fail ("wrong design for " ^ smp.expr)
                    | exception e -> fail (smp.expr ^ ": " ^ Printexc.to_string e)));
               Some (smp, J.member "cached" j = Some (J.Bool true))))
      samples
  in
  { samples = checked; failed = !failed; designs = List.rev !designs; verify_points = !points }
