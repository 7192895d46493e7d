(* Solver-state equivalence tests.

   The solver carries state from query to query: retained CDCL
   instances on each exploration's scope (Solver.Scope: instances
   queried under guard assumptions) and the process-wide query and
   counterexample caches, which outlive a run.  None of it may show in
   what a run finds: every verdict, path total, instruction count and
   (site, kind) bug set must be identical whether the caches start
   cold or warm from an identical earlier run, sequentially or across
   a worker pool (whose workers fork with the warm caches), and
   straight through or checkpointed mid-scope and resumed.  The
   detection matrix of Section 5.3 must not notice warm caches
   either.  Whether the scoped and the scratch pipeline agree is the
   solver differential gate's question (test_smt). *)

module Engine = Symex.Engine
module Search = Symex.Search
module Error = Symex.Error
module Solver = Smt.Solver
module Verify = Symsysc.Verify
module Report = Symsysc.Report

let scenario ?strategy ?workers () =
  Verify.scenario ~num_sources:4 ~t5_max_len:8 ?strategy ?workers ()

let strategies =
  [ ("dfs", Search.Dfs);
    ("bfs", Search.Bfs);
    ("random", Search.Random_path 42);
    ("cover-new", Search.Cover_new) ]

let tests = [ "t1"; "t2"; "t3"; "t4"; "t5" ]

(* The pool de-duplicates errors by (site, kind); compare identity. *)
let fingerprint (r : Report.t) =
  let e = r.Report.engine in
  ( r.Report.verdict,
    e.Engine.paths,
    e.Engine.paths_completed,
    e.Engine.paths_errored,
    e.Engine.paths_infeasible,
    e.Engine.paths_unknown,
    e.Engine.instructions,
    e.Engine.exhausted,
    List.sort_uniq compare
      (List.map
         (fun (err : Error.t) ->
            (err.Error.site, Error.kind_to_string err.Error.kind))
         e.Engine.errors) )

let check_matrix strategy name () =
  let run workers = Verify.run_test (scenario ~strategy ~workers ()) name in
  Solver.clear_caches ();
  let cold = run 1 in
  let warm = run 1 in
  let warm_par = run 4 in
  Solver.clear_caches ();
  Alcotest.(check bool) "warm-cache sequential equals cold-cache run" true
    (fingerprint warm = fingerprint cold);
  Alcotest.(check bool) "warm-cache 4-worker equals cold-cache run" true
    (fingerprint warm_par = fingerprint cold)

let matrix_cases =
  List.concat_map
    (fun (sname, strategy) ->
       List.map
         (fun name ->
            ( Printf.sprintf "incremental equivalence: %s/%s" sname name,
              `Slow,
              check_matrix strategy name ))
         tests)
    strategies

(* ------------------------------------------------------------------ *)
(* Mid-scope checkpoint/resume                                         *)

let with_session sc f = { sc with Verify.session = f sc.Verify.session }

(* An instruction budget that fires partway through a path, so the
   checkpoint is written while the per-path solver scope is mid-stack;
   the resumed process (fresh scopes, cold instances) must land on the
   same exploration. *)
let check_midscope_resume strategy () =
  let sc = scenario ~strategy () in
  let name = "t4" in
  let straight = Verify.run_test sc name in
  let saved = ref None in
  let policy =
    { Engine.write = (fun ck -> saved := Some ck); every_s = infinity }
  in
  let truncated_sc =
    with_session sc (fun s ->
        { s with
          Engine.Session.checkpoint = Some policy;
          limits =
            { s.Engine.Session.limits with
              Engine.max_instructions = Some 50 } })
  in
  let _truncated = Verify.run_test truncated_sc name in
  match !saved with
  | None -> Alcotest.fail "no checkpoint written"
  | Some ck ->
    let resumed =
      Verify.run_test
        (with_session sc (fun s -> { s with Engine.Session.resume = Some ck }))
        name
    in
    Alcotest.(check bool) "resumed run exhausted" true
      resumed.Report.engine.Engine.exhausted;
    Alcotest.(check bool) "mid-scope resume equals straight-through" true
      (fingerprint resumed = fingerprint straight)

let midscope_cases =
  List.map
    (fun (sname, strategy) ->
       ( Printf.sprintf "mid-scope resume equivalence: %s/t4" sname,
         `Slow,
         check_midscope_resume strategy ))
    strategies

(* ------------------------------------------------------------------ *)
(* Detection matrix on warm caches                                     *)

(* The fault-injection campaign of Section 5.3 — the same matrix pinned
   as a golden in the resilience suite — must not notice solver state
   left by an earlier campaign: detection flags and first-detection
   latencies are identical on cold and warm caches. *)
let test_detection_matrix_mode_independent () =
  let summarize m =
    List.map
      (fun (fault, cells) ->
         ( fault,
           List.map
             (fun (test, (c : Verify.matrix_cell)) ->
                (test, c.Verify.detected, c.Verify.first_path))
             cells ))
      m
  in
  let run () = summarize (Verify.detection_matrix (scenario ())) in
  Solver.clear_caches ();
  let cold = run () in
  let warm = run () in
  Solver.clear_caches ();
  Alcotest.(check bool) "matrix identical on cold and warm caches" true
    (warm = cold)

let suite =
  matrix_cases @ midscope_cases
  @ [ ("detection matrix: mode independent", `Slow,
       test_detection_matrix_mode_independent) ]
