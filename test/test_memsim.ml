(* Memory-simulator tests: cache behaviour (hit/miss/LRU/writeback/set
   conflicts, against a reference LRU), GPU coalescing and bank conflicts,
   the simulator's input checks and allocation-free [consume], end-to-end
   sanity of the platform models, and the suite's results pinned bit for
   bit. *)

open Grover_ocl
module M = Grover_memsim
module Cache = M.Cache
module P = M.Platform
module Sim = M.Simulate

let cfg ?(size = 1024) ?(line = 64) ?(ways = 2) ?(latency = 4) () =
  { Cache.size_bytes = size; line_bytes = line; ways; latency }

(* -- Cache ----------------------------------------------------------------- *)

let test_cache_hit_after_miss () =
  let c = Cache.create (cfg ()) in
  Alcotest.(check int) "first access misses" 1
    (Cache.access c ~addr:0 ~bytes:4 ~is_write:false);
  Alcotest.(check int) "second access hits" 0
    (Cache.access c ~addr:32 ~bytes:4 ~is_write:false);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.s_hits;
  Alcotest.(check int) "misses" 1 s.Cache.s_misses

let test_cache_line_spanning () =
  let c = Cache.create (cfg ()) in
  (* 8 bytes straddling a line boundary touch two lines. *)
  Alcotest.(check int) "two misses" 2
    (Cache.access c ~addr:60 ~bytes:8 ~is_write:false)

let test_cache_lru_eviction () =
  (* 1 KiB, 2-way, 64B lines -> 8 sets. Lines 0, 8, 16 map to set 0. *)
  let c = Cache.create (cfg ()) in
  let touch line = Cache.access c ~addr:(line * 64) ~bytes:1 ~is_write:false in
  ignore (touch 0);
  ignore (touch 8);
  ignore (touch 0);
  (* line 8 is now LRU *)
  ignore (touch 16);
  (* evicts 8 *)
  Alcotest.(check int) "line 0 still resident" 0 (touch 0);
  Alcotest.(check int) "line 8 was evicted" 1 (touch 8)

let test_cache_set_conflict_thrash () =
  (* Three lines cycling through a 2-way set always miss. *)
  let c = Cache.create (cfg ()) in
  let touch line = Cache.access c ~addr:(line * 64) ~bytes:1 ~is_write:false in
  for _ = 1 to 3 do
    ignore (touch 0);
    ignore (touch 8);
    ignore (touch 16)
  done;
  let s = Cache.stats c in
  Alcotest.(check int) "every access misses" 9 s.Cache.s_misses

let test_cache_writeback () =
  let c = Cache.create (cfg ()) in
  ignore (Cache.access c ~addr:0 ~bytes:4 ~is_write:true);
  ignore (Cache.access c ~addr:(8 * 64) ~bytes:4 ~is_write:false);
  ignore (Cache.access c ~addr:(16 * 64) ~bytes:4 ~is_write:false);
  (* The dirty line 0 must have been written back on eviction. *)
  let s = Cache.stats c in
  Alcotest.(check int) "one writeback" 1 s.Cache.s_writebacks

let test_cache_reset () =
  let c = Cache.create (cfg ()) in
  ignore (Cache.access c ~addr:0 ~bytes:4 ~is_write:false);
  Cache.reset c;
  let s = Cache.stats c in
  Alcotest.(check int) "misses cleared" 0 s.Cache.s_misses;
  Alcotest.(check int) "cold again" 1 (Cache.access c ~addr:0 ~bytes:4 ~is_write:false)

let prop_cache_miss_bound =
  (* Total misses never exceed total accesses; unique lines lower-bound. *)
  QCheck.Test.make ~name:"cache miss bounds" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (int_range 0 4095))
    (fun addrs ->
      let c = Cache.create (cfg ()) in
      List.iter
        (fun a -> ignore (Cache.access c ~addr:a ~bytes:1 ~is_write:false))
        addrs;
      let s = Cache.stats c in
      let unique_lines =
        List.sort_uniq compare (List.map (fun a -> a / 64) addrs)
      in
      s.Cache.s_hits + s.Cache.s_misses = List.length addrs
      && s.Cache.s_misses >= List.length unique_lines)

(* A list-based LRU reference: per set, (line, dirty) pairs most recent
   first. Hits, misses and writebacks must match [Cache] exactly. *)
let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache agrees with a reference LRU" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (pair (int_range 0 4095) bool))
    (fun accesses ->
      let c = Cache.create (cfg ()) in
      let sets = Array.make 8 [] in
      let hits = ref 0 and misses = ref 0 and writebacks = ref 0 in
      List.iter
        (fun (addr, is_write) ->
          ignore (Cache.access c ~addr ~bytes:1 ~is_write);
          let line = addr / 64 in
          let set = line mod 8 in
          match List.assoc_opt line sets.(set) with
          | Some dirty ->
              incr hits;
              sets.(set) <-
                (line, dirty || is_write) :: List.remove_assoc line sets.(set)
          | None ->
              incr misses;
              let kept =
                match sets.(set) with
                | [ a; (_, victim_dirty) ] ->
                    if victim_dirty then incr writebacks;
                    [ a ]
                | l -> l
              in
              sets.(set) <- (line, is_write) :: kept)
        accesses;
      Cache.stats c
      = { Cache.s_hits = !hits; s_misses = !misses; s_writebacks = !writebacks })

(* -- Synthetic traces through the simulator ---------------------------------- *)

let mk_stats ?(queue = 0) ~wg_size events =
  let s = Grover_ocl.Trace.fresh_stats ~wg_id:0 ~queue ~wg_size in
  List.iter (fun e -> Trace.push_event s e) events;
  s

let ev ~wi ~addr ?(bytes = 4) ?(write = false) ?(space = Grover_ir.Ssa.Global) () =
  { Trace.addr; bytes; is_write = write; space; wi }

let gpu_mem_cycles plat events ~wg_size =
  let sim = Sim.create plat in
  Sim.consume sim (mk_stats ~wg_size events);
  let r = Sim.result sim in
  r.Sim.r_memory

let test_gpu_coalesced_vs_strided () =
  (* 32 lanes reading 32 consecutive floats = 1 segment; reading a 128-byte
     strided column = 32 segments. *)
  let coalesced =
    List.init 32 (fun l -> ev ~wi:l ~addr:(0x1000 + (4 * l)) ())
  in
  let strided = List.init 32 (fun l -> ev ~wi:l ~addr:(0x1000 + (128 * l)) ()) in
  let c1 = gpu_mem_cycles P.fermi coalesced ~wg_size:32 in
  let c2 = gpu_mem_cycles P.fermi strided ~wg_size:32 in
  Alcotest.(check bool)
    (Printf.sprintf "strided (%.0f) >= 16x coalesced (%.0f)" c2 c1)
    true
    (c2 >= 16.0 *. c1)

let test_gpu_broadcast_single_transaction () =
  let broadcast = List.init 32 (fun l -> ev ~wi:l ~addr:0x2000 ()) in
  let coalesced = List.init 32 (fun l -> ev ~wi:l ~addr:(0x2000 + (4 * l)) ()) in
  let b = gpu_mem_cycles P.fermi broadcast ~wg_size:32 in
  let c = gpu_mem_cycles P.fermi coalesced ~wg_size:32 in
  Alcotest.(check bool) "broadcast costs no more than coalesced" true (b <= c)

let spm_cycles plat events ~wg_size =
  let sim = Sim.create plat in
  Sim.consume sim (mk_stats ~wg_size events);
  (Sim.result sim).Sim.r_spm

let test_gpu_bank_conflicts () =
  let local = Grover_ir.Ssa.Local in
  (* Conflict-free: lane l touches bank l. *)
  let free =
    List.init 32 (fun l -> ev ~wi:l ~addr:(0x100 + (4 * l)) ~space:local ())
  in
  (* 32-way conflict: every lane touches bank 0 at a different address. *)
  let conflict =
    List.init 32 (fun l -> ev ~wi:l ~addr:(0x100 + (128 * l)) ~space:local ())
  in
  let f = spm_cycles P.fermi free ~wg_size:32 in
  let c = spm_cycles P.fermi conflict ~wg_size:32 in
  Alcotest.(check bool)
    (Printf.sprintf "conflict (%.1f) = 32x free (%.1f)" c f)
    true
    (c = 32.0 *. f)

let test_gpu_spm_broadcast () =
  let local = Grover_ir.Ssa.Local in
  (* All lanes read the same local address: broadcast, one bank access. *)
  let bcast = List.init 32 (fun l -> ev ~wi:l ~addr:0x100 ~space:local ()) in
  let free =
    List.init 32 (fun l -> ev ~wi:l ~addr:(0x100 + (4 * l)) ~space:local ())
  in
  Alcotest.(check bool) "broadcast is conflict-free" true
    (spm_cycles P.fermi bcast ~wg_size:32 <= spm_cycles P.fermi free ~wg_size:32)

let test_cpu_simd_coalescing () =
  (* 8 lanes reading consecutive floats = 1 line access per position. *)
  let unit_stride = List.init 8 (fun l -> ev ~wi:l ~addr:(0x1000 + (4 * l)) ()) in
  let big_stride = List.init 8 (fun l -> ev ~wi:l ~addr:(0x1000 + (256 * l)) ()) in
  let cycles events =
    let sim = Sim.create P.snb in
    Sim.consume sim (mk_stats ~wg_size:8 events);
    (Sim.result sim).Sim.r_memory
  in
  Alcotest.(check bool) "strided costs more" true
    (cycles big_stride >= 4.0 *. cycles unit_stride)

(* A 64-work-item group with [per_lane] accesses per work-item, cycling
   through coalesced global reads, strided global writes, bank-conflicting
   local accesses and private accesses. *)
let synthetic_group ~per_lane =
  let wg_size = 64 in
  let s = Trace.fresh_stats ~wg_id:0 ~queue:0 ~wg_size in
  s.Trace.int_ops <- 1000;
  s.Trace.float_ops <- 500;
  s.Trace.barrier_rounds <- 2;
  for j = 0 to per_lane - 1 do
    for wi = 0 to wg_size - 1 do
      let space, addr, is_write =
        match j mod 4 with
        | 0 -> (Grover_ir.Ssa.Global, 0x1000_0000 + (4 * ((j * wg_size) + wi)), false)
        | 1 -> (Grover_ir.Ssa.Global, 0x1000_0000 + (512 * wi) + (4 * j), true)
        | 2 -> (Grover_ir.Ssa.Local, 0x0100_0000 + (128 * (wi mod 8)) + (4 * j), wi mod 2 = 0)
        | _ -> (Grover_ir.Ssa.Private, 0x2000_0000 + (64 * wi) + (4 * j), j mod 8 = 3)
      in
      Trace.record s ~addr ~bytes:4 ~is_write ~space ~wi
    done
  done;
  s

(* Minor words per [consume] of [s] on a simulator warmed with [s]. *)
let words_per_consume (p : P.t) s =
  let sim = Sim.create p in
  Sim.consume sim s;
  let reps = 20 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    Sim.consume sim s
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let test_consume_allocation_free () =
  let small = synthetic_group ~per_lane:21 and big = synthetic_group ~per_lane:420 in
  List.iter
    (fun (p : P.t) ->
      let ws = words_per_consume p small and wb = words_per_consume p big in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words per 1344-event group" p.P.name ws)
        true (ws <= 8.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words per 20x larger group" p.P.name wb)
        true (wb <= ws))
    P.all

let test_rejects_out_of_range_wi () =
  let s = mk_stats ~wg_size:4 [ ev ~wi:0 ~addr:0 (); ev ~wi:4 ~addr:64 () ] in
  List.iter
    (fun (p : P.t) ->
      Alcotest.check_raises p.P.name
        (Invalid_argument
           "Simulate.consume: event from work-item 4 in a work-group of 4 work-items")
        (fun () -> Sim.consume (Sim.create p) s))
    P.all

let test_rejects_non_pow2_unit () =
  let plat =
    match P.fermi.P.mem with
    | P.Gpu_mem g -> { P.fermi with P.mem = P.Gpu_mem { g with P.segment = 96 } }
    | P.Cpu_mem _ -> Alcotest.fail "Fermi must be a GPU"
  in
  Alcotest.check_raises "segment"
    (Invalid_argument
       "Simulate.create: segment of 96 bytes is not a power of two")
    (fun () -> ignore (Sim.create plat))

(* -- Platform sanity ------------------------------------------------------------ *)

let test_platform_lookup () =
  Alcotest.(check bool) "snb" true (P.by_name "snb" <> None);
  Alcotest.(check bool) "TAHITI" true (P.by_name "TAHITI" <> None);
  Alcotest.(check bool) "bogus" true (P.by_name "bogus" = None);
  Alcotest.(check int) "six platforms" 6 (List.length P.all)

let test_platform_structure () =
  List.iter
    (fun (p : P.t) ->
      Alcotest.(check bool) (p.P.name ^ " cores > 0") true (p.P.cores > 0);
      match (p.P.kind, p.P.mem) with
      | P.Gpu, P.Gpu_mem _ -> ()
      | (P.Cpu | P.Mic), P.Cpu_mem _ -> ()
      | _ -> Alcotest.failf "%s: kind/memory-model mismatch" p.P.name)
    P.all;
  (* The paper's MIC story requires no shared LLC there. *)
  match P.mic.P.mem with
  | P.Cpu_mem m -> Alcotest.(check bool) "MIC has no shared LLC" true (m.P.llc = None)
  | _ -> Alcotest.fail "MIC must be a cache hierarchy"

let test_simulate_accumulates_queues () =
  let sim = Sim.create P.snb in
  let mk q = mk_stats ~queue:q ~wg_size:1 [ ev ~wi:0 ~addr:0 () ] in
  Sim.consume sim (mk 0);
  Sim.consume sim (mk 1);
  let r = Sim.result sim in
  Alcotest.(check int) "two groups" 2 r.Sim.r_groups;
  Alcotest.(check bool) "both queues charged" true
    (r.Sim.per_queue.(0) > 0.0 && r.Sim.per_queue.(1) > 0.0);
  (* Critical path = max, not sum. *)
  Alcotest.(check bool) "max over queues" true
    (r.Sim.cycles < r.Sim.per_queue.(0) +. r.Sim.per_queue.(1))

(* -- Golden results: every field of [Simulate.result], bit for bit --------------- *)

(* One row per (case, version, platform) of the suite at scale 4, every float
   as a %h hex literal so the comparison is exact. The pinned rows are
   test/memsim_golden.tsv; on a mismatch the fresh table is written to
   memsim_golden.actual in the test's working directory
   (_build/default/test under [dune runtest]), so an intended model change
   is recorded by copying that file over the pinned one. *)
let golden_scale = 4

let golden_rows () : string list =
  let module H = Grover_suite.Harness in
  let hex f = Printf.sprintf "%h" f in
  List.concat_map
    (fun (case : Grover_suite.Kit.case) ->
      List.concat_map
        (fun v ->
          let fn, _ = H.compile_version case v in
          List.map
            (fun (p : P.t) ->
              let _, _, sim, valid, _ =
                H.execute case fn ~scale:golden_scale ~platform:(Some p)
              in
              (match valid with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s: invalid output: %s" case.Grover_suite.Kit.id e);
              let r = Option.get sim in
              String.concat "\t"
                [ case.Grover_suite.Kit.id;
                  H.version_name v;
                  p.P.name;
                  hex r.Sim.cycles;
                  String.concat "," (Array.to_list (Array.map hex r.Sim.per_queue));
                  hex r.Sim.r_compute;
                  hex r.Sim.r_memory;
                  hex r.Sim.r_barrier;
                  hex r.Sim.r_spm;
                  string_of_int r.Sim.r_groups ])
            P.all)
        [ H.With_lm; H.Without_lm ])
    Grover_suite.Suite.all

let test_golden_results () =
  let expected =
    In_channel.with_open_text "memsim_golden.tsv" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let actual = golden_rows () in
  if actual <> expected then begin
    Out_channel.with_open_text "memsim_golden.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff = function
      | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else (e, a)
      | e :: _, [] -> (e, "<missing>")
      | [], a :: _ -> ("<missing>", a)
      | [], [] -> ("", "")
    in
    let e, a = first_diff (expected, actual) in
    Alcotest.failf
      "simulator results moved (fresh table in memsim_golden.actual)\n\
       expected: %s\n\
       actual:   %s"
      e a
  end

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suite =
  [ ( "cache",
      [ Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
        Alcotest.test_case "line spanning" `Quick test_cache_line_spanning;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "set conflict thrash" `Quick test_cache_set_conflict_thrash;
        Alcotest.test_case "writeback" `Quick test_cache_writeback;
        Alcotest.test_case "reset" `Quick test_cache_reset ] );
    qsuite "cache-props" [ prop_cache_miss_bound; prop_cache_matches_reference ];
    ( "gpu-model",
      [ Alcotest.test_case "coalescing" `Quick test_gpu_coalesced_vs_strided;
        Alcotest.test_case "broadcast" `Quick test_gpu_broadcast_single_transaction;
        Alcotest.test_case "bank conflicts" `Quick test_gpu_bank_conflicts;
        Alcotest.test_case "SPM broadcast" `Quick test_gpu_spm_broadcast ] );
    ( "cpu-model",
      [ Alcotest.test_case "SIMD coalescing" `Quick test_cpu_simd_coalescing ] );
    ( "simulator",
      [ Alcotest.test_case "consume allocates nothing" `Quick test_consume_allocation_free;
        Alcotest.test_case "out-of-range work-item" `Quick test_rejects_out_of_range_wi;
        Alcotest.test_case "non-power-of-two unit" `Quick test_rejects_non_pow2_unit ] );
    ( "platforms",
      [ Alcotest.test_case "lookup" `Quick test_platform_lookup;
        Alcotest.test_case "structure" `Quick test_platform_structure;
        Alcotest.test_case "queue accumulation" `Quick test_simulate_accumulates_queues ] );
    ( "golden",
      [ Alcotest.test_case "suite results at scale 4" `Quick test_golden_results ] ) ]
