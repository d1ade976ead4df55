(* Benchmark entry point: runs one workload (or all three) and prints every
   metric by name with its unit. The last line of standard output is one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics of a separate traced run
   with --trace 1.

     perfbench.exe --workload compile_cold|execute_warm|paper_sim|all
                   --seed N --seconds S --trace 0|1
                   [--np-reference FILE] [--commit ID]

   Exit code 0 when the run completed (failed jobs are reported in the
   result); 1 when a non-vacuity gate or the trace residual bound fails;
   2 on bad arguments or a refused environment. *)

module W = Workloads

(* Variables that would change what is measured: engine, execution path,
   lane width, domain count, or the cache directory and its budget. *)
let refused_env =
  [
    "GROVER_ENGINE";
    "GROVER_FORCE_PATH";
    "GROVER_LANE_WIDTH";
    "GROVER_DOMAIN_CAP";
    "GROVER_CACHE_DIR";
    "GROVER_CACHE_MAX_BYTES";
  ]

(* Set-ups per run; setup_s is their median. *)
let n_setups = 5

(* The traced run fails when more than this share of its wall time lies
   outside every layer's self time. *)
let residual_bound = 0.10

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("job_p50_ms", "ms");
    ("job_tail_ms", "ms");
    ("wi_per_s", "wi/s");
    ("peak_heap_mb", "MB");
  ]

let exec_paths = [ "wg-vec"; "wg-loop"; "fiberless"; "fiber" ]

(* Per-layer self-time metrics: (metric, span name). *)
let layer_times =
  [
    ("clc.lex_s", "clc.lex");
    ("clc.parse_s", "clc.parse");
    ("ir.lower_s", "ir.lower");
    ("passes.normalize_s", "passes.normalize");
    ("core.grover_s", "core.grover");
    ("promote.run_s", "promote.run");
    ("analysis.race_s", "analysis.race");
    ("cache.key_s", "cache.key");
    ("cache.build_s", "cache.build");
    ("cache.disk_hit_s", "cache.disk_hit");
    ("ocl.prepare_s", "ocl.prepare");
    ("ocl.plan_s", "ocl.plan");
  ]
  @ List.map (fun p -> ("ocl.launch_s." ^ p, "ocl.launch." ^ p)) exec_paths
  @ [
      ("memsim.create_s", "memsim.create");
      ("memsim.consume_s", "memsim.consume");
      ("suite.mk_s", "suite.mk");
      ("suite.check_s", "suite.check");
    ]

(* Counters reported per round as counted. *)
let layer_counts =
  [
    "clc.tokens";
    "ir.instrs_lowered";
    "passes.instrs_normalized";
    "core.buffers_disabled";
    "core.barriers_removed";
    "promote.tiles";
    "cache.misses";
    "cache.disk_bytes";
    "cache.disk_hits";
  ]
  @ List.map (fun p -> "ocl.launches." ^ p) exec_paths
  @ [ "ocl.loads"; "ocl.stores"; "ocl.local_accesses"; "ocl.barriers" ]

let per_layer_units =
  List.map (fun (m, _) -> (m, "s")) layer_times
  @ List.map (fun m -> (m, if m = "cache.disk_bytes" then "bytes" else "count")) layer_counts
  @ [
      ("ocl.lane_width", "lanes");
      ("ocl.wi_per_s.with_lm", "wi/s");
      ("ocl.wi_per_s.without_lm", "wi/s");
      ("memsim.groups", "count");
      ("trace.residual_frac", "frac");
      ("trace.overhead_frac", "frac");
    ]

(* -- Statistics ------------------------------------------------------------ *)

let median = Speed.median

(* The highest whole percentile that leaves at least ten jobs above it. *)
let tail_percentile (n : int) : int =
  max 0 (int_of_float (Float.floor (100.0 -. (1000.0 /. float_of_int n))))

(* Nearest-rank percentile. *)
let percentile (xs : float list) (p : int) : float =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let k = int_of_float (Float.ceil (float_of_int p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* -- One workload ------------------------------------------------------------ *)

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  gate_failures : string list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let out_dir = Filename.concat "perfbench" "_out"

let run_workload (w : W.t) ~seed ~seconds ~trace ~meta : result =
  let rounds =
    max w.W.min_rounds (int_of_float (Float.ceil (seconds /. w.W.round_s)))
  in
  (* Set-up: inputs, the cache directory the workload reads, warm-up. Each
     is timed in reference seconds, from probes on both sides of it. *)
  let inst = ref None and setup_times = ref [] in
  for index = 0 to n_setups - 1 do
    Option.iter (fun (i : W.instance) -> i.W.cleanup ()) !inst;
    Speed.reset ();
    Speed.probes 3;
    let t0 = Unix.gettimeofday () in
    inst := Some (w.W.setup ~seed ~index);
    let t1 = Unix.gettimeofday () in
    Speed.probes 3;
    setup_times := ((t1 -. t0) *. Speed.overall ()) :: !setup_times
  done;
  let inst = Option.get !inst in
  Gc.full_major ();
  (* End-to-end run, tracing off, probing between jobs. *)
  let r = W.new_run () in
  Speed.start ();
  let spent0 = !Speed.spent and t0 = Unix.gettimeofday () in
  for k = 0 to rounds - 1 do
    inst.W.round r k
  done;
  let raw_wall = Unix.gettimeofday () -. t0 -. (!Speed.spent -. spent0) in
  Speed.stop ();
  (* Each job in reference seconds at the speed of its moment; the time
     between jobs at the run's median speed. *)
  let factor_at = Speed.factor_at () in
  let latencies =
    List.map (fun (start, d) -> d *. factor_at (start +. (d /. 2.0))) r.W.latencies
  in
  let raw_jobs = List.fold_left (fun a (_, d) -> a +. d) 0.0 r.W.latencies in
  let wall =
    List.fold_left ( +. ) 0.0 latencies +. ((raw_wall -. raw_jobs) *. Speed.overall ())
  in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let jobs = List.length latencies in
  let tail_p = tail_percentile jobs in
  let gate_failures = ref (w.W.gates r ~rounds) in
  let notes =
    ref
      [
        Printf.sprintf "# %s: seed %d, %d rounds, %d jobs, tail = p%d, %d set-ups"
          w.W.name seed rounds jobs tail_p n_setups;
        Printf.sprintf "# %s: failed_frac %.4f (%d of %d jobs)" w.W.name
          (ratio (float_of_int r.W.failed) (float_of_int r.W.attempted))
          r.W.failed r.W.attempted;
        Printf.sprintf
          "# %s: raw wall %.4f s, %d probes, median %.4f ms (nominal %.4f), speed factor %.4f"
          w.W.name raw_wall (List.length !Speed.samples) (1e3 *. Speed.median_probe ())
          (1e3 *. Speed.nominal) (Speed.overall ());
      ]
  in
  let e2e =
    [
      ("setup_s", median !setup_times);
      ("wall_s", wall);
      ("job_p50_ms", 1e3 *. median latencies);
      ("job_tail_ms", 1e3 *. percentile latencies tail_p);
      ("wi_per_s", float_of_int r.W.items /. wall);
      ("peak_heap_mb", peak_heap_mb);
    ]
  in
  let attempted = ref r.W.attempted and failed = ref r.W.failed in
  let errors = ref r.W.errors in
  let metrics =
    if not trace then List.map (fun (m, v) -> (m, v, List.assoc m end_to_end)) e2e
    else begin
      (* Separate traced run over the same number of rounds. *)
      let rt = W.new_run () in
      Spans.reset ();
      Spans.enabled := true;
      let t0 = Spans.now () in
      for k = 0 to rounds - 1 do
        inst.W.round rt (rounds + k)
      done;
      let traced_wall = Spans.now () -. t0 in
      Spans.enabled := false;
      attempted := !attempted + rt.W.attempted;
      failed := !failed + rt.W.failed;
      errors := rt.W.errors @ !errors;
      gate_failures := !gate_failures @ w.W.gates rt ~rounds;
      let selfs = Spans.self_times () in
      let self name = Option.value ~default:0.0 (Hashtbl.find_opt selfs name) in
      let attributed = List.fold_left (fun acc (_, s) -> acc +. self s) 0.0 layer_times in
      let residual = (traced_wall -. attributed) /. traced_wall in
      if residual > residual_bound then
        gate_failures :=
          !gate_failures
          @ [ Printf.sprintf "trace.residual_frac %.4f exceeds %.2f" residual residual_bound ];
      let per_round v = v /. float_of_int rounds in
      let c name = W.counter rt name in
      let wi v =
        let vn = Grover_suite.Harness.version_name v in
        ratio (c ("launch.items." ^ vn)) (c ("launch.seconds." ^ vn))
      in
      let trace_file =
        Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" w.W.name seed)
      in
      Spans.write_chrome trace_file ~meta:(("workload", w.W.name) :: meta);
      notes := !notes @ [ Printf.sprintf "# %s: Chrome trace in %s" w.W.name trace_file ];
      let values =
        List.map (fun (m, s) -> (m, per_round (self s))) layer_times
        @ List.map (fun m -> (m, per_round (c m))) layer_counts
        @ [
            ("ocl.lane_width", ratio (c "lane_width.sum") (c "lane_width.n"));
            ("ocl.wi_per_s.with_lm", wi Grover_suite.Harness.With_lm);
            ("ocl.wi_per_s.without_lm", wi Grover_suite.Harness.Without_lm);
            ( "memsim.groups",
              per_round
                (List.fold_left
                   (fun acc (p : Grover_memsim.Platform.t) ->
                     acc +. c ("memsim.groups." ^ p.Grover_memsim.Platform.name))
                   0.0 Grover_memsim.Platform.all) );
            ("trace.residual_frac", residual);
            ("trace.overhead_frac", (traced_wall -. raw_wall) /. raw_wall);
          ]
      in
      List.map (fun (m, v) -> (m, v, List.assoc m per_layer_units)) values
    end
  in
  inst.W.cleanup ();
  let shown_errors = List.filteri (fun i _ -> i < 10) (List.rev !errors) in
  {
    workload = w.W.name;
    correct = !failed = 0 && !gate_failures = [];
    attempted = !attempted;
    failed = !failed;
    metrics;
    gate_failures = !gate_failures;
    notes =
      !notes
      @ List.map (fun e -> Printf.sprintf "# %s: FAILED %s" w.W.name e) shown_errors
      @ List.map (fun g -> Printf.sprintf "# %s: GATE %s" w.W.name g) !gate_failures;
  }

(* -- Output -------------------------------------------------------------------- *)

let json_of_result (res : result) : string =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    res.correct res.attempted res.failed
    (String.concat ", "
       (List.map
          (fun (m, v, u) ->
            Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
              (Spans.json_string m)
              (if Float.is_finite v then v else 0.0)
              (Spans.json_string u))
          res.metrics))

let print_result (res : result) =
  List.iter print_endline res.notes;
  List.iter (fun (m, v, u) -> Printf.printf "%-28s %16.6g %s\n" m v u) res.metrics

(* -- Entry ------------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload compile_cold|execute_warm|paper_sim|all --seed N \
     --seconds S --trace 0|1 [--np-reference FILE] [--commit ID]";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let commit = ref "unknown" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | "--np-reference" :: v :: rest -> W.np_reference_path := v; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match !workload with
    | Some "all" -> W.all
    | Some name -> (
        match List.find_opt (fun (w : W.t) -> w.W.name = name) W.all with
        | Some w -> [ w ]
        | None -> usage ())
    | None -> usage ()
  in
  (match
     List.filter
       (fun v -> match Sys.getenv_opt v with None | Some "" -> false | Some _ -> true)
       refused_env
   with
  | [] -> ()
  | set ->
      Printf.eprintf "perfbench: refusing to run with %s set: it changes what is measured\n"
        (String.concat ", " set);
      exit 2);
  if not (Sys.file_exists !W.np_reference_path) then begin
    Printf.eprintf "perfbench: no np reference at %s (run from the repository root)\n"
      !W.np_reference_path;
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  W.tmp_root := Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ()));
  Unix.mkdir !W.tmp_root 0o700;
  at_exit (fun () -> W.remove_tree !W.tmp_root);
  let meta =
    [
      ("commit", !commit);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("seed", string_of_int !seed);
      ("ocaml", Sys.ocaml_version);
      ("seconds", Printf.sprintf "%g" !seconds);
      ("trace", if !trace then "1" else "0");
    ]
  in
  let results =
    List.map
      (fun w ->
        let res = run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace ~meta in
        print_result res;
        res)
      selected
  in
  Printf.printf "# meta {%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Spans.json_string k ^ ": " ^ Spans.json_string v) meta));
  let final =
    match results with
    | [ res ] -> json_of_result res
    | _ ->
        List.iter (fun res -> print_endline (json_of_result res)) results;
        json_of_result
          {
            workload = "all";
            correct = List.for_all (fun r -> r.correct) results;
            attempted = List.fold_left (fun a r -> a + r.attempted) 0 results;
            failed = List.fold_left (fun a r -> a + r.failed) 0 results;
            metrics =
              List.concat_map
                (fun r -> List.map (fun (m, v, u) -> (r.workload ^ "." ^ m, v, u)) r.metrics)
                results;
            gate_failures = List.concat_map (fun r -> r.gate_failures) results;
            notes = [];
          }
  in
  print_endline final;
  exit (if List.exists (fun r -> r.gate_failures <> []) results then 1 else 0)
