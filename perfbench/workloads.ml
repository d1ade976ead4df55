(* The three workloads. Each times calls into the program's public
   functions from outside; [Spans.span] names the layer each call belongs
   to.

   A job runs from the request to validated output: in compile_cold and
   execute_warm one (case, version), in paper_sim one (case, platform)
   pair yielding one validated np. Every job calls [run_job], which times
   it and counts it as failed on an exception or a failed check. *)

module Kit = Grover_suite.Kit
module Suite = Grover_suite.Suite
module H = Grover_suite.Harness
module CC = Grover_cache.Compile_cache
module Lexer = Grover_clc.Lexer
module Parser = Grover_clc.Parser
module Lower = Grover_ir.Lower
module Printer = Grover_ir.Printer
module Pass = Grover_passes.Pass
module Pipeline = Grover_passes.Pipeline
module Grover = Grover_core.Grover
module Promote = Grover_promote.Promote
module Race = Grover_analysis.Race
module Config = Grover_analysis.Config
module Interp = Grover_ocl.Interp
module Runtime = Grover_ocl.Runtime
module Sim = Grover_memsim.Simulate
module P = Grover_memsim.Platform

let span = Spans.span

(* -- Run state ----------------------------------------------------------- *)

type run = {
  mutable latencies : (float * float) list;
      (** (start, seconds), one per job, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable items : int;  (** work-items of validated jobs *)
  mutable errors : string list;  (** newest first *)
  counters : (string, float) Hashtbl.t;
}

let new_run () =
  {
    latencies = [];
    attempted = 0;
    failed = 0;
    items = 0;
    errors = [];
    counters = Hashtbl.create 64;
  }

let bump (r : run) (name : string) (v : float) : unit =
  Hashtbl.replace r.counters name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt r.counters name))

let counter (r : run) (name : string) : float =
  Option.value ~default:0.0 (Hashtbl.find_opt r.counters name)

let fail (r : run) (msg : string) : unit =
  r.failed <- r.failed + 1;
  r.errors <- msg :: r.errors

(* [f] returns the validated work-item count, or why the job failed. *)
let run_job (r : run) ~(id : int) (label : string)
    (f : unit -> (int, string) result) : unit =
  r.attempted <- r.attempted + 1;
  Spans.job := id;
  let t0 = Unix.gettimeofday () in
  let outcome =
    try span "job" f with e -> Error ("exception " ^ Printexc.to_string e)
  in
  r.latencies <- (t0, Unix.gettimeofday () -. t0) :: r.latencies;
  (match outcome with
  | Ok items -> r.items <- r.items + items
  | Error m -> fail r (label ^ ": " ^ m));
  Speed.tick ()

(* -- Shared helpers ------------------------------------------------------ *)

(* Private cache directories live under [tmp_root]; [Perfbench] deletes it
   when the run ends. *)
let tmp_root = ref ""
let dir_counter = ref 0

let fresh_dir () : string =
  incr dir_counter;
  let d = Filename.concat !tmp_root (Printf.sprintf "cache-%d" !dir_counter) in
  Unix.mkdir d 0o700;
  d

let rec remove_tree (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* The seed shuffles the job order of every round. *)
let shuffled ~(seed : int) ~(round : int) (a : 'a array) : 'a array =
  let a = Array.copy a in
  let st = Random.State.make [| seed; round |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let versions = [ H.With_lm; H.Without_lm ]
let cases = Array.of_list Suite.all

(* Every (case, version) request of the suite: 24 jobs. *)
let case_versions : (Kit.case * H.version) array =
  Array.of_list
    (List.concat_map (fun c -> List.map (fun v -> (c, v)) versions) Suite.all)

let request ?(salt = []) (case : Kit.case) (v : H.version) : CC.request =
  CC.request ~defines:(case.Kit.defines @ salt)
    ~variant:
      (match v with
      | H.With_lm -> CC.With_lm
      | H.Without_lm -> CC.Without_lm case.Kit.remove)
    case.Kit.source

let kernel_art (pr : CC.prepared) (case : Kit.case) : CC.kernel_art =
  match CC.find_art pr ~name:case.Kit.kernel with
  | Some ka -> ka
  | None -> failwith ("kernel missing from artifact: " ^ case.Kit.kernel)

let compiled_kernel (pr : CC.prepared) (case : Kit.case) : Interp.compiled =
  match CC.find_kernel pr ~name:case.Kit.kernel with
  | Some c -> c
  | None -> failwith ("kernel missing from cache value: " ^ case.Kit.kernel)

let items_of (gx, gy, gz) = gx * gy * gz

(* NDRange geometry of each case at scale 1, from [Kit.mk]. *)
let geometry () : (string, (int * int * int) * (int * int * int)) Hashtbl.t =
  let g = Hashtbl.create 16 in
  Array.iter
    (fun (c : Kit.case) ->
      let w = span "suite.mk" (fun () -> c.Kit.mk ~scale:1) in
      Hashtbl.replace g c.Kit.id (w.Kit.global, w.Kit.local))
    cases;
  g

let note_lane_width (r : run) (c : Interp.compiled) : unit =
  bump r "lane_width.sum" (float_of_int (Interp.lane_width_of c));
  bump r "lane_width.n" 1.0

(* Launch one version at scale 1 on one domain and validate its output;
   with [sim], stream every work-group trace into a fresh simulator. *)
let launch (r : run) (case : Kit.case) (v : H.version) (compiled : Interp.compiled)
    ~(sim : (P.t * bool) option) : (Sim.result option * int, string) result =
  let w = span "suite.mk" (fun () -> case.Kit.mk ~scale:1) in
  let queues = match sim with Some (p, _) -> p.P.cores | None -> 1 in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues } in
  let state =
    Option.map
      (fun (p, vectorized) ->
        span "memsim.create" (fun () -> Sim.create ~vectorized p))
      sim
  in
  let plan = span "ocl.plan" (fun () -> Runtime.plan compiled ~cfg ~domains:1 ()) in
  let path = Runtime.path_name plan in
  note_lane_width r compiled;
  let consume_s = ref 0.0 and groups = ref 0 in
  let on_group =
    match state with
    | None -> None
    | Some s when !Spans.enabled ->
        Some
          (fun g ->
            let t0 = Unix.gettimeofday () in
            Sim.consume s g;
            consume_s := !consume_s +. (Unix.gettimeofday () -. t0);
            incr groups)
    | Some s -> Some (Sim.consume s)
  in
  let t0 = Unix.gettimeofday () in
  let totals =
    span ("ocl.launch." ^ path) (fun () ->
        let t =
          Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ?on_group
            ~domains:1 ()
        in
        if state <> None then
          Spans.aggregate "memsim.consume" ~dur:!consume_s ~count:!groups;
        t)
  in
  let launch_s = Unix.gettimeofday () -. t0 -. !consume_s in
  let items = items_of w.Kit.global in
  let vname = H.version_name v in
  bump r ("ocl.launches." ^ path) 1.0;
  bump r ("launch.items." ^ vname) (float_of_int items);
  bump r ("launch.seconds." ^ vname) launch_s;
  bump r "ocl.loads" (float_of_int totals.t_loads);
  bump r "ocl.stores" (float_of_int totals.t_stores);
  bump r "ocl.local_accesses" (float_of_int totals.t_local_accesses);
  bump r "ocl.barriers" (float_of_int totals.t_barriers);
  let result = Option.map Sim.result state in
  match span "suite.check" (fun () -> w.Kit.check ()) with
  | Error m -> Error (vname ^ " output: " ^ m)
  | Ok () -> Ok (result, items)

let sum_instrs fns =
  float_of_int (List.fold_left (fun a fn -> a + Pass.instr_count fn) 0 fns)

(* The stages [Compile_cache.compile] runs on a miss, re-run through their
   own public functions (traced run only; see [Spans.replay]). *)
let replay_build (r : run) (rq : CC.request) : unit =
  let toks =
    span "clc.lex" (fun () -> Lexer.tokenize ~defines:rq.CC.rq_defines rq.CC.rq_source)
  in
  bump r "clc.tokens" (float_of_int (List.length toks));
  let prog = span "clc.parse" (fun () -> Parser.parse_program toks) in
  let fns = span "ir.lower" (fun () -> Lower.lower_program prog) in
  bump r "ir.instrs_lowered" (sum_instrs fns);
  span "passes.normalize" (fun () -> List.iter (fun fn -> Pipeline.normalize fn) fns);
  bump r "passes.instrs_normalized" (sum_instrs fns);
  (match rq.CC.rq_variant with
  | CC.Without_lm only ->
      span "core.grover" (fun () ->
          List.iter (fun fn -> ignore (Grover.run ?only fn : Grover.outcome)) fns)
  | CC.With_lm -> ());
  span "ocl.prepare" (fun () ->
      List.iter (fun fn -> ignore (Interp.prepare fn : Interp.compiled)) fns)

(* -- Workload definition ------------------------------------------------- *)

type instance = {
  round : run -> int -> unit;  (** one round of jobs; the int is the round *)
  cleanup : unit -> unit;
}

type t = {
  name : string;
  round_s : float;
      (** nominal seconds per round; sizes the run from [--seconds] so the
          amount of work is fixed for a given setting *)
  min_rounds : int;
  setup : seed:int -> index:int -> instance;
      (** [index] numbers repeated set-ups (and their warm-up rounds) *)
  gates : run -> rounds:int -> string list;
      (** non-vacuity: why the run did not use the layer it exists for *)
}

(* -- compile_cold -------------------------------------------------------- *)

(* Renumbered IR of each (case, version), from the first compile in the
   process; later rounds must reproduce it byte for byte. *)
let ir_digests : (string * string, Digest.t) Hashtbl.t = Hashtbl.create 32

let check_compile (case : Kit.case) (v : H.version) (ka : CC.kernel_art) :
    (unit, string) result =
  let key = (case.Kit.id, H.version_name v) in
  let d = Digest.string (Printer.func_to_string ka.CC.ka_fn) in
  match Hashtbl.find_opt ir_digests key with
  | Some d0 when d0 <> d -> Error "renumbered IR differs from the first round"
  | Some _ -> Ok ()
  | None ->
      Hashtbl.replace ir_digests key d;
      Ok ()

let check_disabled (case : Kit.case) (o : Grover.outcome) : (unit, string) result =
  let expected = List.sort compare (List.assoc case.Kit.id Reference.disabled_buffers) in
  let got = List.sort compare o.Grover.transformed in
  if got = expected then Ok ()
  else
    Error
      (Printf.sprintf "disabled [%s], expected [%s]" (String.concat ";" got)
         (String.concat ";" expected))

let compile_job (r : run) (cache : CC.t) ~salt ~geo (case : Kit.case)
    (v : H.version) : (int, string) result =
  let rq = request ~salt case v in
  ignore (span "cache.key" (fun () -> CC.key_of_request rq) : string);
  let pr = span "cache.build" (fun () -> CC.compile cache rq) in
  Spans.replay (fun () -> replay_build r rq);
  let ka = kernel_art pr case in
  note_lane_width r (compiled_kernel pr case);
  let global, local = Hashtbl.find geo case.Kit.id in
  let ( let* ) = Result.bind in
  let* () = span "suite.check" (fun () -> check_compile case v ka) in
  match v with
  | H.With_lm -> Ok (items_of global)
  | H.Without_lm ->
      let o =
        match ka.CC.ka_outcome with
        | Some o -> o
        | None -> failwith "without_lm artifact has no Grover outcome"
      in
      bump r "core.buffers_disabled" (float_of_int (List.length o.Grover.transformed));
      bump r "core.barriers_removed" (float_of_int o.Grover.barriers_removed);
      let* () = span "suite.check" (fun () -> check_disabled case o) in
      let fn = H.clone_fn ka.CC.ka_fn in
      let po =
        Config.with_local (Some local) (fun () ->
            let po = span "promote.run" (fun () -> Promote.run fn) in
            ignore (span "analysis.race" (fun () -> Race.analyse fn));
            po)
      in
      bump r "promote.tiles" (float_of_int (List.length po.Promote.promoted));
      let promoted = po.Promote.promoted <> [] in
      if promoted = List.mem case.Kit.id Reference.promoting then Ok (items_of global)
      else
        Error
          (if promoted then "promoted, expected no promotion"
           else "promoted nothing, expected a promotion")

let compile_cold : t =
  let setup ~seed ~index =
    let geo = geometry () in
    let round r round =
      (* A fresh handle on the memory tier only: on a shared host the disk
         tier's file-system latency was a quarter of the round and most of
         its run-to-run spread. execute_warm's set-up stores to disk. *)
      let cache = CC.create () in
      Array.iteri
        (fun i ((case : Kit.case), v) ->
          (* A salt define new in every round, and distinct per case (the
             three NVD-MM cases share one with_lm source): every request
             misses the cache and the process-global canonical-source memo
             alike. *)
          let salt =
            [ ("PERFBENCH_SALT", Printf.sprintf "%d_%d_%s" seed round case.Kit.id) ]
          in
          run_job r ~id:((round * 100) + i)
            (case.Kit.id ^ "/" ^ H.version_name v)
            (fun () -> compile_job r cache ~salt ~geo case v))
        (shuffled ~seed ~round case_versions);
      let st = CC.stats cache in
      bump r "cache.misses" (float_of_int st.CC.st_misses)
    in
    (* Warm-up: one untimed round. *)
    round (new_run ()) (-1 - index);
    { round; cleanup = (fun () -> ()) }
  in
  let gates r ~rounds =
    let jobs = rounds * Array.length case_versions in
    if int_of_float (counter r "cache.misses") <> jobs then
      [ Printf.sprintf "cache.misses = %.0f, expected %d" (counter r "cache.misses") jobs ]
    else []
  in
  { name = "compile_cold"; round_s = 0.04; min_rounds = 20; setup; gates }

(* -- execute_warm -------------------------------------------------------- *)

let execute_warm : t =
  let setup ~seed ~index =
    let dir = fresh_dir () in
    let fill = CC.create ~dir () in
    Array.iter (fun (case, v) -> ignore (CC.compile fill (request case v))) case_versions;
    let disk_bytes = float_of_int (CC.disk_bytes fill) in
    let round r round =
      bump r "cache.disk_bytes" disk_bytes;
      Array.iteri
        (fun i ((case : Kit.case), v) ->
          run_job r ~id:((round * 100) + i)
            (case.Kit.id ^ "/" ^ H.version_name v)
            (fun () ->
              let rq = request case v in
              ignore (span "cache.key" (fun () -> CC.key_of_request rq) : string);
              (* A fresh handle per request, as a new groverc process
                 would open: its memory tier is empty, so every request
                 is a disk hit. *)
              let cache, pr =
                span "cache.disk_hit" (fun () ->
                    let c = CC.create ~dir () in
                    (c, CC.compile c rq))
              in
              bump r "cache.disk_hits" (float_of_int (CC.stats cache).CC.st_disk_hits);
              Spans.replay (fun () ->
                  span "ocl.prepare" (fun () ->
                      List.iter
                        (fun ka -> ignore (Interp.prepare ka.CC.ka_fn : Interp.compiled))
                        pr.CC.pr_art.CC.art_kernels));
              let compiled = compiled_kernel pr case in
              Result.map snd (launch r case v compiled ~sim:None)))
        (shuffled ~seed ~round case_versions)
    in
    round (new_run ()) (-1 - index);
    { round; cleanup = (fun () -> remove_tree dir) }
  in
  let gates r ~rounds =
    let jobs = rounds * Array.length case_versions in
    let launches v = counter r ("launch.items." ^ H.version_name v) in
    List.concat
      [
        (if int_of_float (counter r "cache.disk_hits") <> jobs then
           [ Printf.sprintf "cache.disk_hits = %.0f, expected %d"
               (counter r "cache.disk_hits") jobs ]
         else []);
        List.filter_map
          (fun v ->
            if launches v = 0.0 then Some ("no " ^ H.version_name v ^ " launches")
            else None)
          versions;
      ]
  in
  { name = "execute_warm"; round_s = 0.75; min_rounds = 3; setup; gates }

(* -- paper_sim ----------------------------------------------------------- *)

(* The (case, platform) set of Fig. 2 (NVD-MT and NVD-MM-A on all six
   platforms) and Fig. 10 (the suite on SNB, Nehalem and MIC). *)
let paper_pairs : (Kit.case * P.t) array =
  let fig2 =
    List.concat_map
      (fun p -> [ (Grover_suite.Nvd_mt.case, p); (Grover_suite.Nvd_mm.case_a, p) ])
      P.all
  in
  let fig10 = List.concat_map (fun p -> List.map (fun c -> (c, p)) Suite.all) P.cache_only in
  let seen = Hashtbl.create 64 in
  Array.of_list
    (List.filter
       (fun ((c : Kit.case), (p : P.t)) ->
         let k = (c.Kit.id, p.P.name) in
         if Hashtbl.mem seen k then false
         else (
           Hashtbl.add seen k ();
           true))
       (fig2 @ fig10))

let np_reference_path = ref "perfbench/np_reference.tsv"

type sim_outcome = {
  so_platform : string;
  so_case : string;
  mutable so_verdict : string option;
  mutable so_items : int;  (** work-items credited if the job validated *)
}

let paper_sim : t =
  let setup ~seed ~index =
    let refs = Reference.load_np !np_reference_path in
    let cache = CC.create () in
    let prepared = Hashtbl.create 32 in
    Array.iter
      (fun ((case : Kit.case), v) ->
        let pr = CC.compile cache (request case v) in
        let ka = kernel_art pr case in
        Hashtbl.replace prepared (case.Kit.id, v)
          (compiled_kernel pr case, H.uses_vector_types ka.CC.ka_fn))
      case_versions;
    let job r ((case : Kit.case), (p : P.t)) (so : sim_outcome) () =
      let run v =
        let compiled, vectorized = Hashtbl.find prepared (case.Kit.id, v) in
        launch r case v compiled ~sim:(Some (p, vectorized))
      in
      let ( let* ) = Result.bind in
      let* rw, iw = run H.With_lm in
      let* ro, io = run H.Without_lm in
      let seconds = function Some res -> res.Sim.seconds | None -> nan in
      let groups = function Some res -> res.Sim.r_groups | None -> 0 in
      bump r ("memsim.groups." ^ p.P.name) (float_of_int (groups rw + groups ro));
      let np = seconds rw /. seconds ro in
      let verdict = H.verdict_name (H.classify np) in
      so.so_verdict <- Some verdict;
      let shown = Printf.sprintf "%.2f" np in
      match Hashtbl.find_opt refs (case.Kit.id, p.P.name) with
      | Some row when row.Reference.np <> shown || row.Reference.verdict <> verdict ->
          Error
            (Printf.sprintf "np %s %s, expected %s %s" shown verdict row.Reference.np
               row.Reference.verdict)
      | _ when not (Float.is_finite np && np > 0.0) -> Error ("np " ^ shown)
      | _ ->
          so.so_items <- iw + io;
          Ok (iw + io)
    in
    let round r round =
      let outcomes =
        Array.mapi
          (fun i ((case : Kit.case), (p : P.t)) ->
            let so =
              { so_platform = p.P.name; so_case = case.Kit.id; so_verdict = None; so_items = 0 }
            in
            run_job r ~id:((round * 100) + i)
              (case.Kit.id ^ "@" ^ p.P.name)
              (job r (case, p) so);
            so)
          (shuffled ~seed ~round paper_pairs)
      in
      (* Table IV: a platform whose gain/loss/similar counts differ from
         the reference fails every job that fed them. *)
      List.iter
        (fun (plat, (g, l, s)) ->
          let fed =
            Array.to_list outcomes
            |> List.filter (fun so ->
                   so.so_platform = plat
                   && not (List.mem so.so_case Reference.table4_excluded))
          in
          let count v = List.length (List.filter (fun so -> so.so_verdict = Some v) fed) in
          let got = (count "gain", count "loss", count "similar") in
          if got <> (g, l, s) then begin
            let cg, cl, cs = got in
            List.iter
              (fun so ->
                if so.so_items > 0 then begin
                  r.items <- r.items - so.so_items;
                  fail r
                    (Printf.sprintf "%s@%s: Table IV %s counts %d/%d/%d, expected %d/%d/%d"
                       so.so_case plat plat cg cl cs g l s)
                end)
              fed
          end)
        Reference.table4
    in
    (* Warm-up: the Fig. 2 NVD-MT row, one job per platform. *)
    let warm = new_run () in
    List.iteri
      (fun i p ->
        let case = Grover_suite.Nvd_mt.case in
        let so = { so_platform = p.P.name; so_case = case.Kit.id; so_verdict = None; so_items = 0 } in
        run_job warm ~id:((-1 - index) * 100 - i) "warm-up" (job warm (case, p) so))
      P.all;
    { round; cleanup = (fun () -> ()) }
  in
  let gates r ~rounds:_ =
    List.filter_map
      (fun (p : P.t) ->
        if counter r ("memsim.groups." ^ p.P.name) = 0.0 then
          Some ("memsim.groups = 0 on " ^ p.P.name)
        else None)
      P.all
  in
  { name = "paper_sim"; round_s = 4.35; min_rounds = 1; setup; gates }

let all = [ compile_cold; execute_warm; paper_sim ]
