(* Workload program of the layered benchmark (perfbench/README.md gives
   the rationale, the metric -> layer -> workload map and the output
   schema).

   One process runs one workload.  It times its own calls into the
   public entry points ([Symsysc.Verify.run_test],
   [Symex.Engine.Session.run], [Service.Client]), reads the counters
   the program already exports (solver stats, profile buckets, report
   fields, resilience), and in traced passes folds the existing
   [Obs.Sink] event stream into per-layer numbers.  Every unit's
   verdict and (site, kind) set is checked against the workload's
   hand-written expected file.  The last line of stdout is one JSON
   document; perfbench/run.py turns it into the benchmark's result. *)

module Engine = Symex.Engine
module Json = Obs.Json
module Stats = Smt.Solver.Stats
module Profile = Obs.Profile
module Jobspec = Service.Jobspec
module Client = Service.Client

let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun s ->
       prerr_endline ("perfbench: " ^ s);
       exit 2)
    fmt

(* ---- statistics ---- *)

let sorted xs = Array.of_list (List.sort compare xs)

let median = function
  | [] -> 0.0
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let sum = List.fold_left ( +. ) 0.0

(* Per-metric median over a list of (name, value) rows that all carry
   the same names in the same order. *)
let median_rows = function
  | [] -> []
  | first :: _ as rows ->
    List.map
      (fun (name, _) -> (name, median (List.map (List.assoc name) rows)))
      first

(* ---- expected outcomes ---- *)

type expect = { e_verdict : string; e_errors : (string * string) list }

let load_expected path =
  let str what j =
    match Json.to_string_opt j with
    | Some s -> s
    | None -> die "%s: %s must be a string" path what
  in
  match Json.load path with
  | Error e -> die "%s: %s" path e
  | Ok doc ->
    (match Json.member "units" doc with
     | Some (Json.Obj units) ->
       List.map
         (fun (name, u) ->
            let verdict =
              match Json.member "verdict" u with
              | Some v -> str "verdict" v
              | None -> die "%s: unit %s has no verdict" path name
            in
            let errors =
              match Option.bind (Json.member "errors" u) Json.to_list_opt with
              | None -> die "%s: unit %s has no errors list" path name
              | Some es ->
                List.map
                  (fun e ->
                     match Json.to_list_opt e with
                     | Some [ site; kind ] -> (str "site" site, str "kind" kind)
                     | _ -> die "%s: unit %s: errors are [site, kind] pairs" path name)
                  es
            in
            (name, { e_verdict = verdict; e_errors = List.sort_uniq compare errors }))
         units
     | _ -> die "%s: missing \"units\" object" path)

(* ---- one unit's report ---- *)

(* What one unit (a test or a job) reported, decoded from the report
   JSON the program writes ([Symsysc.Report.to_json], or a random job's
   artifact): the same decoder serves in-process tests and daemon
   jobs, so both workloads measure the same fields. *)
type unit_report = {
  verdict : string;
  errors : (string * string) list;  (** sorted distinct (site, kind) *)
  last_found : float;  (** found_after of the last distinct error *)
  unvalidated : int;
  random : bool;
  wall : float;
  workers : int;
  paths : int;
  unknown : int;
  instructions : int;
  saved : int;
  restores : int;
  fallbacks : int;
  solver : Stats.t;
  profile : Profile.t;
  requeued : int;
  deaths : int;
  lease_expired : int;
  duplicates : int;
  events_dropped : int;
  txns : int;  (** register accesses served (coverage read + write counts) *)
}

let field conv default k j =
  Option.value ~default (Option.bind (Json.member k j) conv)

let int_field = field Json.to_int_opt 0
let float_field = field Json.to_float_opt 0.0
let str_field = field Json.to_string_opt ""

let decode_report j =
  let errors =
    field Json.to_list_opt [] "errors" j
    @ (match Json.member "failure" j with Some (Json.Obj _ as f) -> [ f ] | _ -> [])
  in
  let res = field Option.some (Json.Obj []) "resilience" j in
  let coverage =
    match Json.member "coverage" j with
    | Some c -> Obs.Coverage.of_json c
    | None -> Obs.Coverage.zero
  in
  {
    verdict = str_field "verdict" j;
    errors =
      List.sort_uniq compare
        (List.map (fun e -> (str_field "site" e, str_field "kind" e)) errors);
    last_found =
      List.fold_left (fun acc e -> Float.max acc (float_field "found_after" e)) 0.0 errors;
    unvalidated =
      List.length
        (List.filter (fun e -> Json.member "validated" e = Some (Json.Bool false)) errors);
    random = str_field "mode" j = "random";
    wall = float_field "wall_time" j;
    workers = max 1 (int_field "workers" j);
    paths = int_field "paths" j;
    unknown = int_field "paths_unknown" j;
    instructions = int_field "instructions" j;
    saved = int_field "instructions_saved" j;
    restores = int_field "snapshot_restores" j;
    fallbacks = int_field "replay_fallbacks" j;
    solver = field (fun s -> Some (Stats.of_json s)) Stats.zero "solver" j;
    profile = field (fun p -> Some (Profile.of_json p)) Profile.zero "profile" j;
    requeued = int_field "requeued" res;
    deaths = int_field "worker_deaths" res;
    lease_expired = int_field "lease_expired" res;
    duplicates = int_field "duplicates" res;
    events_dropped = int_field "events_dropped" j;
    txns =
      List.fold_left
        (fun acc (_, (rc : Obs.Coverage.reg_cov)) ->
           acc + rc.Obs.Coverage.rc_reads + rc.Obs.Coverage.rc_writes)
        0 coverage.Obs.Coverage.regs;
  }

let pp_errors es =
  "{" ^ String.concat "; " (List.map (fun (s, k) -> s ^ " " ^ k) es) ^ "}"

(* Why a unit counts as failed: verdict or (site, kind) set differs from
   the expected file, a path ended Unknown, a counterexample did not
   replay, or (jobs) the job crashed or was quarantined. *)
let unit_failures expected name ~crash (r : unit_report option) =
  match List.assoc_opt name expected, r with
  | None, _ -> [ name ^ ": no entry in the expected file" ]
  | Some _, None -> [ name ^ ": " ^ Option.value ~default:"no report" crash ]
  | Some e, Some r ->
    List.filter_map Fun.id
      [
        (if r.verdict <> e.e_verdict then
           Some (Printf.sprintf "%s: verdict %S, expected %S" name r.verdict e.e_verdict)
         else None);
        (if r.errors <> e.e_errors then
           Some
             (Printf.sprintf "%s: errors %s, expected %s" name (pp_errors r.errors)
                (pp_errors e.e_errors))
         else None);
        (if r.unknown > 0 then Some (Printf.sprintf "%s: %d path(s) ended Unknown" name r.unknown)
         else None);
        (if r.unvalidated > 0 then
           Some (Printf.sprintf "%s: %d unvalidated counterexample(s)" name r.unvalidated)
         else None);
        Option.map (fun c -> name ^ ": " ^ c) crash;
      ]

(* ---- per-layer numbers ---- *)

let is_concretize origin =
  String.length origin >= 10 && String.sub origin 0 10 = "concretize"

(* Layer metrics read from the reports of one pass (the program's own
   exported counters).  [smt.other_s] comes from the profile buckets
   and the three stage times from the solver stats, so their sum
   against [smt.time_s] is a real cross-check of the two counters. *)
let report_layers (rs : unit_report list) =
  let st = List.fold_left (fun a r -> Stats.add a r.solver) Stats.zero rs in
  let prof = List.fold_left (fun a r -> Profile.add a r.profile) Profile.zero rs in
  let bucket_time keep =
    sum
      (List.filter_map
         (fun ((origin, stage), b) ->
            if keep origin stage then Some b.Profile.b_time else None)
         prof)
  in
  let count f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let wall = sum (List.map (fun r -> r.wall) rs) in
  let pooled = List.filter (fun r -> r.workers > 1 && r.wall > 0.0) rs in
  [
    ("smt.time_s", st.Stats.time);
    ("smt.interval_s", st.Stats.interval_time);
    ("smt.bitblast_s", st.Stats.bitblast_time);
    ("smt.sat_s", st.Stats.sat_time);
    ("smt.other_s",
     bucket_time (fun _ stage -> not (List.mem stage [ "interval"; "bitblast"; "sat" ])));
    ("smt.share", if wall > 0.0 then st.Stats.time /. wall else 0.0);
    ("smt.concretize_s", bucket_time (fun origin _ -> is_concretize origin));
    ("smt.branch_s",
     bucket_time (fun origin _ -> not (is_concretize origin || origin = "assume")));
    ("smt.queries", float_of_int st.Stats.queries);
    ("smt.slices", float_of_int st.Stats.slices);
    ("smt.slice_hit_rate", Stats.cache_hit_rate st);
    ("smt.scope_reused", float_of_int st.Stats.scope_reused);
    ("smt.sat_calls", float_of_int st.Stats.sat_calls);
    ("smt.sat_conflicts", float_of_int st.Stats.sat_conflicts);
    ("smt.sat_propagations", float_of_int st.Stats.sat_propagations);
    ("smt.unknown", count (fun r -> r.unknown));
    ("symex.paths", count (fun r -> r.paths));
    ("symex.instructions", count (fun r -> r.instructions));
    ("symex.executed", count (fun r -> r.instructions - r.saved));
    ("symex.snapshot_restores", count (fun r -> r.restores));
    ("symex.replay_fallbacks", count (fun r -> r.fallbacks));
    (* Pool runs sum solver time over their workers, so the non-solver
       share of a pooled job divides it by the worker count. *)
    ("symex.nonsolver_s",
     sum
       (List.map
          (fun r ->
             Float.max 0.0 (r.wall -. (r.solver.Stats.time /. float_of_int r.workers)))
          rs));
    ("tlm.txns", count (fun r -> r.txns));
    ("pool.solver_parallelism",
     median (List.map (fun r -> r.solver.Stats.time /. r.wall) pooled));
    ("pool.requeued", count (fun r -> r.requeued));
    ("pool.worker_deaths", count (fun r -> r.deaths));
    ("pool.lease_expired", count (fun r -> r.lease_expired));
    ("pool.duplicates", count (fun r -> r.duplicates));
    ("obs.events_dropped", count (fun r -> r.events_dropped));
  ]

(* The solver's stage identity: interval + bitblast + sat + other must
   equal its own total. *)
let sum_check layers =
  let g k = List.assoc k layers in
  let parts = g "smt.interval_s" +. g "smt.bitblast_s" +. g "smt.sat_s" +. g "smt.other_s" in
  let total = g "smt.time_s" in
  if Float.abs (parts -. total) > 1e-6 *. Float.max 1.0 total then
    [ Printf.sprintf "smt stage sum %.9f s differs from smt.time_s %.9f s" parts total ]
  else []

(* Fold a recorded event stream (tag 0 = this process, w + 1 = pool
   worker w) into the per-layer numbers only the trace carries.  A tlm
   span's self time is its duration minus the solver queries and nested
   tlm spans it encloses, per event source. *)
let trace_layers (tagged : (int * Obs.Event.t) list) =
  let queries = ref [] in
  let forks = ref 0 and deltas = ref 0 and resumes = ref 0 and advances = ref 0 in
  let tlm_self = ref 0.0 in
  let stacks = Hashtbl.create 4 in
  let stack tag =
    match Hashtbl.find_opt stacks tag with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks tag s;
      s
  in
  let charge tag dur =
    match !(stack tag) with
    | (_, child) :: _ -> child := !child +. dur
    | [] -> ()
  in
  List.iter
    (fun (tag, (e : Obs.Event.t)) ->
       match e.Obs.Event.cat, e.Obs.Event.name, e.Obs.Event.kind with
       | "solver", "query", Obs.Event.Complete dur ->
         queries := dur :: !queries;
         charge tag dur
       | "engine", "fork", _ -> incr forks
       | "kernel", "delta-cycle", _ -> incr deltas
       | "kernel", "resume", _ -> incr resumes
       | "kernel", "time-advance", _ -> incr advances
       | "tlm", "txn", Obs.Event.Span_begin ->
         let s = stack tag in
         s := (e.Obs.Event.ts, ref 0.0) :: !s
       | "tlm", "txn", Obs.Event.Span_end ->
         let s = stack tag in
         (match !s with
          | (t0, child) :: rest ->
            s := rest;
            let dur = e.Obs.Event.ts -. t0 in
            tlm_self := !tlm_self +. dur -. !child;
            charge tag dur
          | [] -> ())
       | _ -> ())
    tagged;
  [
    ("smt.query_p50_us", percentile 0.50 !queries);
    ("smt.query_p99_us", percentile 0.99 !queries);
    ("smt.query_samples", float_of_int (List.length !queries));
    ("symex.forks", float_of_int !forks);
    ("pk.delta_cycles", float_of_int !deltas);
    ("pk.resumes", float_of_int !resumes);
    ("pk.time_advances", float_of_int !advances);
    ("tlm.self_s", !tlm_self /. 1e6);
    ("obs.events", float_of_int (List.length tagged));
  ]

(* Run [f] with a trace recorder subscribed (pool workers forward their
   events into it) and return its result with the recorded stream's
   layer numbers. *)
let traced f =
  let recorder = Obs.Export.recorder () in
  let result = Fun.protect ~finally:(fun () -> Obs.Export.stop recorder) f in
  (result, trace_layers (Obs.Export.tagged_events recorder))

(* ---- passes and their summary ---- *)

(* One measured repetition of a workload's fixed work: a Table 1 pass,
   one campaign matrix, or one traced shadow matrix. *)
type pass = {
  wall : float;
  detect : float;  (** sum over units of the last distinct error's found_after *)
  layers : (string * float) list;  (** {!report_layers} *)
  trace : (string * float) list;  (** {!trace_layers}; [] when untraced *)
}

(* Counters that must repeat exactly between runs of the same code.
   Pooled runs (the campaign) keep only the totals the pool merges
   deterministically; which worker ran which unit moves the rest. *)
let report_counters ~pooled =
  [ "symex.paths"; "symex.instructions"; "tlm.txns" ]
  @ if pooled then []
  else [ "symex.executed"; "smt.queries"; "smt.sat_calls"; "smt.sat_conflicts" ]

let trace_counters ~pooled =
  if pooled then [] else [ "pk.delta_cycles"; "pk.resumes"; "pk.time_advances" ]

(* Every row must repeat the first row's value of each named counter. *)
let drift names rows =
  match rows with
  | [] -> []
  | first :: rest ->
    List.concat
      (List.mapi
         (fun i row ->
            List.filter_map
              (fun name ->
                 let a = List.assoc name first and b = List.assoc name row in
                 if a <> b then
                   Some
                     (Printf.sprintf "%s drifted: pass 1 = %.0f, pass %d = %.0f" name a
                        (i + 2) b)
                 else None)
              names)
         rest)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable latencies : (string * float) list;  (** unit latencies, seconds, newest first *)
  mutable setups : float list;  (** set-up samples, seconds *)
  mutable passes : pass list;  (** untraced, in order *)
  mutable traced_passes : pass list;  (** in order *)
  mutable service : (string * float) list;
}

let record_unit res expected name ~latency ?crash r =
  res.attempted <- res.attempted + 1;
  res.latencies <- (name, latency) :: res.latencies;
  match unit_failures expected name ~crash r with
  | [] -> ()
  | fs ->
    res.failed <- res.failed + 1;
    res.failures <- res.failures @ fs

(* An untraced run takes at least this many passes, so that its medians
   can discard one outlier pass. *)
let min_passes = 3

let run_passes ~seconds ~trace plain traced_pass res =
  let t_start = now () in
  (* Trace runs alternate untraced and traced passes, so both sides see
     the same machine load. *)
  while
    List.length res.passes < (if trace then 1 else min_passes)
    || (trace && res.traced_passes = [])
    || now () -. t_start < seconds
  do
    if trace && List.length res.traced_passes < List.length res.passes then
      res.traced_passes <- res.traced_passes @ [ traced_pass () ]
    else res.passes <- res.passes @ [ plain () ]
  done

(* [jobs] are the job latencies; [base] holds the untraced walls the
   traced passes are compared with for the tracing overhead. *)
let summarize ~pooled ~jobs ~base res =
  let untraced_wall = median (List.map (fun p -> p.wall) res.passes) in
  let all = res.passes @ res.traced_passes in
  let checks =
    List.concat_map (fun p -> sum_check p.layers) all
    @ drift (report_counters ~pooled) (List.map (fun p -> p.layers) all)
    @ drift (trace_counters ~pooled) (List.map (fun p -> p.trace) res.traced_passes)
  in
  let end_to_end =
    [
      ("wall_s", untraced_wall);
      ("setup_s", median res.setups);
      ("detect_s", median (List.map (fun p -> p.detect) res.passes));
      ("job_latency_p50_s", median jobs);
    ]
  in
  let per_layer =
    median_rows (List.map (fun p -> p.layers) res.passes)
    @ median_rows (List.map (fun p -> p.trace) res.traced_passes)
    @ [
      ("obs.trace_overhead_share",
       if res.traced_passes = [] then 0.0
       else median (List.map (fun p -> p.wall) res.traced_passes) /. median base -. 1.0);
    ]
    @ res.service
  in
  let first rows names =
    match rows with
    | row :: _ -> List.map (fun n -> (n, List.assoc n row)) names
    | [] -> []
  in
  let counters =
    first (List.map (fun p -> p.layers) all) (report_counters ~pooled)
    @ first (List.map (fun p -> p.trace) res.traced_passes) (trace_counters ~pooled)
  in
  (end_to_end, per_layer, counters, checks, List.length jobs)

(* ---- sequential workload: table1 ---- *)

(* Paper Table 1: T1–T5 on the original PLIC at 8 sources, T5 length 16. *)
let table1_scenario () = Symsysc.Verify.scenario ~num_sources:8 ~t5_max_len:16 ()

(* One pass runs T1–T5 once, in order, from cold solver caches — the
   work of one [symsysc table1] process. *)
let table1_pass res expected scenario =
  Smt.Solver.clear_caches ();
  let t0 = now () in
  let reports =
    List.map
      (fun (name, _) ->
         let t = now () in
         let report = Symsysc.Verify.run_test scenario name in
         let latency = now () -. t in
         let r = decode_report (Symsysc.Report.to_json report) in
         record_unit res expected name ~latency (Some r);
         r)
      Symsysc.Tests.all
  in
  let wall = now () -. t0 in
  { wall; detect = sum (List.map (fun r -> r.last_found) reports);
    layers = report_layers reports; trace = [] }

(* Set-up a user pays before exploring: process start, library
   initialisation, scenario construction.  Measured by re-running this
   executable in probe mode until it reports ready. *)
let probe_setup args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let dt = now () -. t0 in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  if line <> "ready" then die "set-up probe did not report ready";
  dt

(* Set-up takes milliseconds, so a run takes many samples. *)
let setup_samples = 10

let bypassed_service =
  List.map (fun n -> (n, 0.0))
    [ "service.ready_s"; "service.submit_ack_ms"; "service.overhead_s";
      "service.journal_bytes"; "service.retries"; "service.quarantined" ]

let run_table1 ~expected_path ~seconds ~trace res =
  let expected = load_expected expected_path in
  res.setups <-
    List.init setup_samples (fun _ ->
        probe_setup [| Sys.executable_name; "--probe"; "--expected"; expected_path |]);
  let scenario = table1_scenario () in
  let pass () = table1_pass res expected scenario in
  run_passes ~seconds ~trace pass
    (fun () ->
       let p, t = traced pass in
       { p with trace = t })
    res;
  res.service <- bypassed_service;
  (* The client's job is the whole pass, as [symsysc table1] is one
     invocation; per-test latencies stay in the run record. *)
  let walls = List.map (fun p -> p.wall) res.passes in
  summarize ~pooled:false ~jobs:walls ~base:walls res

(* ---- campaign workload: a job matrix through the daemon ---- *)

let host = "127.0.0.1"

(* PLIC T1–T5 at 4 sources, the CLINT timer and UART loopback
   properties, all symbolic on 2 pool workers, plus a seeded random
   CLINT campaign. *)
let matrix seed =
  let sym = { Jobspec.default with Jobspec.workers = 2 } in
  List.map (fun t -> ("plic/" ^ t, { sym with Jobspec.test = t })) [ "T1"; "T2"; "T3"; "T4"; "T5" ]
  @ [
    ("clint/timer", { sym with Jobspec.peripheral = "clint"; test = "timer" });
    ("uart/loopback", { sym with Jobspec.peripheral = "uart"; test = "loopback" });
    ("clint/timer/random",
     { Jobspec.default with
       Jobspec.peripheral = "clint"; test = "timer"; mode = Jobspec.Random;
       seed = Some seed });
  ]

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

(* The port from the daemon's "[serve] listening on HOST:PORT, ..." line. *)
let listening_port log =
  let key = "listening on " ^ host ^ ":" in
  let kl = String.length key and n = String.length log in
  let rec find i =
    if i + kl > n then None
    else if String.sub log i kl = key then
      match String.index_from_opt log (i + kl) ',' with
      | Some j -> int_of_string_opt (String.sub log (i + kl) (j - i - kl))
      | None -> None
    else find (i + 1)
  in
  find 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

type daemon = { pid : int; port : int; dir : string }

(* The daemon runs in its own process group, so stopping it also stops
   any job or pool-worker process it left behind. *)
let kill_group pid = try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ()

let wait_exit ~timeout pid =
  let deadline = now () +. timeout in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.005; loop ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  loop ()

(* Start [symsysc serve] on a fresh journal and return it once it
   answers ping; the elapsed time is one set-up sample. *)
let start_daemon ~cli ~dir =
  Unix.mkdir dir 0o755;
  let log = Filename.concat dir "serve.log" in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let argv =
    [| cli; "serve"; "--listen"; host ^ ":0"; "--journal"; Filename.concat dir "journal";
       "--max-jobs"; "1" |]
  in
  let t0 = now () in
  flush_all ();
  let pid =
    match Unix.fork () with
    | 0 ->
      (try
         ignore (Unix.setsid ());
         Unix.dup2 ~cloexec:false null Unix.stdin;
         Unix.dup2 ~cloexec:false null Unix.stdout;
         Unix.dup2 ~cloexec:false logfd Unix.stderr;
         Unix.execv cli argv
       with _ -> Unix._exit 127)
    | pid -> pid
  in
  Unix.close logfd;
  Unix.close null;
  (* run.py kills the groups named here if this process dies first. *)
  Out_channel.with_open_text (Filename.concat dir "pid") (fun oc ->
      output_string oc (string_of_int pid));
  let d = { pid; port = 0; dir } in
  let deadline = t0 +. 60.0 in
  let rec await f =
    match f () with
    | Some v -> v
    | None ->
      if now () > deadline || wait_exit ~timeout:0.0 pid then begin
        kill_group pid;
        ignore (wait_exit ~timeout:10.0 pid);
        die "symsysc serve did not become ready (log: %s)" (read_file log)
      end;
      Unix.sleepf 0.001;
      await f
  in
  let port = await (fun () -> listening_port (read_file log)) in
  ignore (await (fun () -> Result.to_option (Client.ping ~host ~port)));
  ({ d with port }, now () -. t0)

let stop_daemon d =
  ignore (Client.drain ~host ~port:d.port);
  if not (wait_exit ~timeout:30.0 d.pid) then begin
    kill_group d.pid;
    ignore (wait_exit ~timeout:10.0 d.pid)
  end;
  kill_group d.pid

let journal_bytes d =
  let dir = Filename.concat d.dir "journal" in
  Array.fold_left
    (fun acc n ->
       if Filename.check_suffix n ".log" then
         acc + (Unix.stat (Filename.concat dir n)).Unix.st_size
       else acc)
    0 (Sys.readdir dir)

let status_poll_s = 0.005

let job_row d id =
  match Client.status ~host ~port:d.port with
  | Error e -> failwith ("status: " ^ e)
  | Ok doc ->
    List.find_opt
      (fun row -> int_field "id" row = id)
      (field Json.to_list_opt [] "jobs" doc)

(* Closed loop: submit one job, wait for it to reach a terminal state,
   then read its report artifact. *)
let run_job res expected d (name, spec) =
  let t0 = now () in
  let id =
    match Client.submit ~host ~port:d.port spec with
    | Ok id -> id
    | Error e -> failwith ("submit: " ^ e)
  in
  let t_ack = now () in
  let rec wait () =
    Unix.sleepf status_poll_s;
    match job_row d id with
    | Some row when List.mem (str_field "state" row) [ "finished"; "quarantined"; "cancelled" ] ->
      (now (), row)
    | _ -> wait ()
  in
  let t_done, row = wait () in
  let latency = t_done -. t_ack in
  let state = str_field "state" row and attempts = int_field "attempts" row in
  let report =
    match Json.load (str_field "report" row) with
    | Ok j when state = "finished" -> Some (decode_report j)
    | _ -> None
  in
  let crash =
    if state <> "finished" then Some ("job " ^ state ^ ": " ^ str_field "fail_reason" row)
    else if attempts > 0 then Some (Printf.sprintf "job crashed %d time(s)" attempts)
    else None
  in
  record_unit res expected name ~latency ?crash report;
  (t_ack -. t0, latency, report)

type matrix_run = {
  m_pass : pass;
  m_ready : float;
  m_acks : float list;
  m_latencies : float list;
  m_overheads : float list;
  m_journal : int;
  m_retried : int;
  m_quarantined : int;
}

let campaign_matrix res expected ~cli ~dir specs =
  let d, ready = start_daemon ~cli ~dir in
  let jobs, wall, counts =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
         let t0 = now () in
         let jobs = List.map (run_job res expected d) specs in
         let wall = now () -. t0 in
         let counts =
           match Client.status ~host ~port:d.port with
           | Ok doc -> field Option.some (Json.Obj []) "counts" doc
           | Error e -> failwith ("status: " ^ e)
         in
         (jobs, wall, counts))
  in
  let reports = List.filter_map (fun (_, _, r) -> r) jobs in
  let m =
    {
      m_pass =
        { wall; detect = sum (List.map (fun r -> r.last_found) reports);
          layers = report_layers reports; trace = [] };
      m_ready = ready;
      m_acks = List.map (fun (ack, _, _) -> ack) jobs;
      m_latencies = List.map (fun (_, latency, _) -> latency) jobs;
      m_overheads =
        List.filter_map
          (fun (_, latency, r) ->
             match r with
             | Some r when not r.random -> Some (latency -. r.wall)
             | _ -> None)
          jobs;
      m_journal = journal_bytes d;
      m_retried = int_field "retried" counts;
      m_quarantined = int_field "quarantined" counts;
    }
  in
  rm_rf dir;
  m

(* The daemon's job processes export no events, so the traced numbers
   of the campaign come from a shadow run: the matrix's symbolic jobs
   run in this process through [Engine.Session.run] with the same
   worker count, untraced and traced in alternation. *)
let shadow_pass res expected specs =
  let reports =
    List.filter_map
      (fun (name, spec) ->
         match spec.Jobspec.mode, Jobspec.thunk spec with
         | Jobspec.Random, _ -> None
         | Jobspec.Symbolic, Error e -> die "%s: %s" name e
         | Jobspec.Symbolic, Ok thunk ->
           Smt.Solver.clear_caches ();
           let session = Engine.Session.make ~workers:spec.Jobspec.workers () in
           let t = now () in
           let report = Engine.Session.run ~label:(Jobspec.label spec) session thunk in
           let latency = now () -. t in
           let r =
             decode_report
               (Symsysc.Report.to_json (Symsysc.Report.make (Jobspec.label spec) report))
           in
           record_unit res expected name ~latency (Some r);
           Some (latency, r))
      specs
  in
  { wall = sum (List.map fst reports);
    detect = sum (List.map (fun (_, r) -> r.last_found) reports);
    layers = report_layers (List.map snd reports); trace = [] }

let run_campaign ~cli ~workdir ~expected_path ~seed ~seconds ~trace res =
  let expected = load_expected expected_path in
  let specs = matrix seed in
  let k = ref 0 in
  let next_dir () =
    incr k;
    Filename.concat workdir (Printf.sprintf "daemon-%d" !k)
  in
  let t_start = now () in
  let matrices = ref [] in
  let budget = if trace then seconds /. 2.0 else seconds in
  while List.length !matrices < (if trace then 1 else min_passes) || now () -. t_start < budget do
    matrices := !matrices @ [ campaign_matrix res expected ~cli ~dir:(next_dir ()) specs ]
  done;
  let ms = !matrices in
  (* The run record's unit latencies are the matrices' only: shadow jobs
     skip the daemon. *)
  let latencies = res.latencies in
  (* Short runs still take several set-up samples. *)
  let extra =
    List.init (max 0 (setup_samples - List.length ms)) (fun _ ->
        let d, ready = start_daemon ~cli ~dir:(next_dir ()) in
        stop_daemon d;
        rm_rf d.dir;
        ready)
  in
  res.setups <- List.map (fun m -> m.m_ready) ms @ extra;
  res.passes <- List.map (fun m -> m.m_pass) ms;
  let base =
    if not trace then []
    else begin
      (* The shadow run's traced passes are compared with its own
         untraced passes for the tracing overhead. *)
      let shadow = { res with passes = []; traced_passes = [] } in
      let pass () = shadow_pass res expected specs in
      run_passes ~seconds:(seconds -. (now () -. t_start)) ~trace:true pass
        (fun () ->
           let p, t = traced pass in
           { p with trace = t })
        shadow;
      res.traced_passes <- shadow.traced_passes;
      List.map (fun p -> p.wall) shadow.passes
    end
  in
  res.latencies <- latencies;
  let all f = List.concat_map f ms in
  res.service <-
    [
      ("service.ready_s", median res.setups);
      ("service.submit_ack_ms", 1000.0 *. median (all (fun m -> m.m_acks)));
      ("service.overhead_s", median (all (fun m -> m.m_overheads)));
      ("service.journal_bytes", median (List.map (fun m -> float_of_int m.m_journal) ms));
      ("service.retries", float_of_int (List.fold_left (fun a m -> a + m.m_retried) 0 ms));
      ("service.quarantined",
       float_of_int (List.fold_left (fun a m -> a + m.m_quarantined) 0 ms));
    ];
  (* The matrix's eight job types split evenly around the median, so a
     pooled median would average the two clusters' extremes; each
     matrix's median job latency is one sample instead. *)
  summarize ~pooled:true ~jobs:(List.map (fun m -> median m.m_latencies) ms) ~base res

(* ---- entry point ---- *)

let () =
  let workload = ref "" and expected = ref "" and cli = ref "" and workdir = ref "" in
  let seed = ref 0 and seconds = ref 10.0 and trace = ref 0 and probe = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME table1 or campaign");
      ("--expected", Arg.Set_string expected, "FILE hand-written expected outcomes");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure at least this long");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--cli", Arg.Set_string cli, "EXE the symsysc CLI (campaign)");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory (campaign)");
      ("--probe", Arg.Set probe, " set-up probe: build the table1 scenario, print ready, exit");
    ]
    (fun a -> die "unexpected argument %s" a)
    "bench --workload NAME --expected FILE [options]";
  if !probe then begin
    ignore (load_expected !expected);
    ignore (table1_scenario ());
    print_endline "ready";
    exit 0
  end;
  let res =
    { attempted = 0; failed = 0; failures = []; latencies = []; setups = []; passes = [];
      traced_passes = []; service = [] }
  in
  let trace = !trace = 1 in
  let end_to_end, per_layer, counters, checks, job_samples =
    match !workload with
    | "table1" -> run_table1 ~expected_path:!expected ~seconds:!seconds ~trace res
    | "campaign" ->
      if !cli = "" || !workdir = "" then die "campaign needs --cli and --workdir";
      run_campaign ~cli:!cli ~workdir:!workdir ~expected_path:!expected ~seed:!seed
        ~seconds:!seconds ~trace res
    | w -> die "unknown workload %S" w
  in
  List.iter (fun f -> prerr_endline ("perfbench: FAILED " ^ f)) res.failures;
  List.iter (fun c -> prerr_endline ("perfbench: CHECK " ^ c)) checks;
  let nums kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  let strs xs = Json.List (List.map (fun x -> Json.Str x) xs) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str !workload);
            ("seed", Json.Int !seed);
            ("trace", Json.Bool trace);
            ("ocaml", Json.Str Sys.ocaml_version);
            ("attempted", Json.Int res.attempted);
            ("failed", Json.Int res.failed);
            ("failures", strs res.failures);
            ("checks", strs checks);
            ("passes", Json.Int (List.length res.passes));
            ("traced_passes", Json.Int (List.length res.traced_passes));
            ("job_latency_samples", Json.Int job_samples);
            ("setup_samples", Json.Int (List.length res.setups));
            ("end_to_end", nums end_to_end);
            ("per_layer", nums per_layer);
            ("counters", nums counters);
            ("pass_walls", Json.List (List.map (fun p -> Json.Float p.wall) res.passes));
            ("unit_latencies",
             Json.Obj
               (List.map
                  (fun name ->
                     ( name,
                       Json.List
                         (List.rev
                            (List.filter_map
                               (fun (n, l) -> if n = name then Some (Json.Float l) else None)
                               res.latencies)) ))
                  (List.sort_uniq compare (List.map fst res.latencies))));
          ]))
