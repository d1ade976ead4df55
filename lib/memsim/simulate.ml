(** Trace-driven performance simulation.

    A simulator instance consumes per-work-group traces (streamed from
    {!Grover_ocl.Runtime.launch}'s [on_group] callback) and charges cycles
    to the hardware queue the group ran on:

    - CPU/MIC: work-items of a group execute serially on one core; every
      memory access (global, local and private alike — local memory is
      ordinary memory on cache-only processors) walks that core's L1/L2 and
      the shared LLC; barriers cost a fiber switch per work-item.
    - GPU: work-items execute in warps; the global and constant accesses
      among the k-th accesses of a warp's lanes coalesce into one
      transaction per distinct address segment; local memory is a banked
      scratch-pad with conflict serialisation; barriers are hardware-cheap.

    Both engines walk the group in steps: the k-th access of every lane of
    a SIMD batch (CPU) or warp (GPU). A step's distinct units — cache lines
    or segments — are collected in first-touch order (lowest lane first,
    then ascending address within an access) and then walked through the
    caches.

    The [wg_stats] handed to {!consume} is a pooled buffer owned by the
    runtime — everything needed from it is charged before returning, and
    no reference to it (or its event arrays) is retained. The simulator's
    own working storage (the lane streams, the step's distinct units, the
    per-bank chains) is likewise pooled in the instance and reused across
    work-groups, so on a warmed simulator {!consume} allocates nothing.

    The total is the maximum over queues (cores run concurrently). *)

open Grover_ocl
module P = Platform

type queue_state = { l1 : Cache.t option; l2 : Cache.t option }

type breakdown = {
  mutable compute : float;
  mutable memory : float;
  mutable barrier : float;
  mutable spm : float;
}

type t = {
  plat : P.t;
  simd : int;  (** effective implicit-vectorisation width for this kernel *)
  unit_shift : int;
      (** log2 of the unit size: the L1 line (CPU) or the segment (GPU) *)
  queues : queue_state array;
  q_cycles : float array;  (** cycles charged to each queue *)
  shared : Cache.t option;  (** LLC (CPU) or device L2 (GPU) *)
  bd : breakdown;
  mutable groups : int;
  mutable start : int array;
      (** lane streams: the events of work-item [wi], in execution order,
          are [idx.(start.(wi))] .. [idx.(start.(wi + 1) - 1)] *)
  mutable idx : int array;
  mutable units : int array;
      (** the current step's distinct units, [unit lsl 1 lor write]: cache
          lines (CPU), segments (GPU global) or local addresses (GPU
          scratch-pad, one per distinct [(addr, write)] key) *)
  mutable next : int array;
      (** GPU scratch-pad: the previous key of the same bank, or -1 *)
  mutable n_units : int;
  bank_head : int array;
      (** GPU scratch-pad: the last key of each bank, or -1; reset after
          each step for the banks that step touched *)
}

(* log2 of a power of two; units are found by shifting, since an integer
   division per event was the largest cost of a step. *)
let log2_exact what n : int =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Simulate.create: %s of %d bytes is not a power of two"
         what n);
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  go 0

(** [vectorized] — whether the kernel already uses explicit vector types.
    Vendor CPU compilers then disable implicit work-item vectorisation
    (Intel's rule), so work-items run scalar and lane coalescing is lost. *)
let create ?(vectorized = false) (plat : P.t) : t =
  let mk_queue () =
    match plat.P.mem with
    | P.Cpu_mem m ->
        { l1 = Some (Cache.create m.P.l1); l2 = Option.map Cache.create m.P.l2 }
    | P.Gpu_mem g -> { l1 = Option.map Cache.create g.P.l1g; l2 = None }
  in
  let shared, banks, unit_shift =
    match plat.P.mem with
    | P.Cpu_mem m ->
        ( Option.map Cache.create m.P.llc,
          0,
          log2_exact "L1 line" m.P.l1.Cache.line_bytes )
    | P.Gpu_mem g ->
        ( Option.map Cache.create g.P.l2g,
          g.P.banks,
          log2_exact "segment" g.P.segment )
  in
  {
    plat;
    simd = (if vectorized then 1 else max 1 plat.P.simd);
    unit_shift;
    queues = Array.init plat.P.cores (fun _ -> mk_queue ());
    q_cycles = Array.make plat.P.cores 0.0;
    shared;
    bd = { compute = 0.0; memory = 0.0; barrier = 0.0; spm = 0.0 };
    groups = 0;
    start = [||];
    idx = [||];
    units = Array.make 64 0;
    next = Array.make 64 0;
    n_units = 0;
    bank_head = Array.make banks (-1);
  }

(* -- Event fields ---------------------------------------------------------------- *)

(* Read straight from [Trace.wg_stats]'s packed arrays (info word
   [wi lsl 3 lor space lsl 1 lor is_write], written by [Trace.record]).
   [Trace.ev_*] decode the same word, but a call into another module is
   never inlined when modules are compiled [-opaque], as in dune's default
   dev profile; through those calls, decoding took a third of [consume]. *)
let ev_wi (s : Trace.wg_stats) k = s.Trace.ev_info.(k) lsr 3
let ev_write (s : Trace.wg_stats) k = s.Trace.ev_info.(k) land 1
let ev_space (s : Trace.wg_stats) k = (s.Trace.ev_info.(k) lsr 1) land 3
let global_code = Trace.space_code Grover_ir.Ssa.Global
let constant_code = Trace.space_code Grover_ir.Ssa.Constant
let local_code = Trace.space_code Grover_ir.Ssa.Local

(* -- Lane streams and per-step units (shared by both engines) --------------- *)

(* Counting-sort the group's event indices by work-item into [t.idx]
   (stable, so each lane's events stay in execution order) and leave each
   lane's first index in [t.start]. *)
let lane_streams (t : t) (s : Trace.wg_stats) : unit =
  let n = s.Trace.wg_size and ne = s.Trace.n_events in
  if Array.length t.start < n + 1 then t.start <- Array.make (n + 1) 0;
  if Array.length t.idx < ne then
    t.idx <- Array.make (max ne (2 * Array.length t.idx)) 0;
  let start = t.start and idx = t.idx in
  Array.fill start 0 (n + 1) 0;
  for k = 0 to ne - 1 do
    let wi = ev_wi s k in
    if wi >= n then
      invalid_arg
        (Printf.sprintf
           "Simulate.consume: event from work-item %d in a work-group of %d \
            work-items"
           wi n);
    start.(wi) <- start.(wi) + 1
  done;
  (* Inclusive prefix sums: [start.(wi)] is where lane [wi] ends. Filling
     backwards moves each cursor down to where its lane begins. *)
  for l = 1 to n - 1 do
    start.(l) <- start.(l) + start.(l - 1)
  done;
  start.(n) <- ne;
  for k = ne - 1 downto 0 do
    let wi = ev_wi s k in
    start.(wi) <- start.(wi) - 1;
    idx.(start.(wi)) <- k
  done

(* Events in the longest lane stream among lanes [first..last]. *)
let depth (t : t) ~first ~last : int =
  let d = ref 0 in
  for l = first to last do
    let len = t.start.(l + 1) - t.start.(l) in
    if len > !d then d := len
  done;
  !d

(* The k-th event of lane [l], or -1 if the lane has fewer events. *)
let kth_event (t : t) l k : int =
  let p = t.start.(l) + k in
  if p < t.start.(l + 1) then t.idx.(p) else -1

(* Append a unit slot, growing the pooled buffers on demand. *)
let push_unit (t : t) (v : int) : int =
  let n = t.n_units in
  if n = Array.length t.units then begin
    let extend a =
      let a' = Array.make (2 * n) 0 in
      Array.blit a 0 a' 0 n;
      a'
    in
    t.units <- extend t.units;
    t.next <- extend t.next
  end;
  t.units.(n) <- v;
  t.n_units <- n + 1;
  n

(* Add unit [u] with write flag [w] (0/1) to the step's distinct units. A
   unit seen before keeps its place; with [merge] its flag becomes the OR
   of all its accesses' flags, otherwise it keeps the first (lowest lane's)
   flag. Scans backwards: a repeat is usually the last unit added. *)
let add_unit (t : t) (u : int) (w : int) ~(merge : bool) : unit =
  let key = u lsl 1 in
  let i = ref (t.n_units - 1) in
  while !i >= 0 && t.units.(!i) land lnot 1 <> key do
    decr i
  done;
  if !i < 0 then ignore (push_unit t (key lor w))
  else if merge then t.units.(!i) <- t.units.(!i) lor w

(* Scratch-pad bank of a local byte address. *)
let bank_of (g : P.gpu_mem) addr : int =
  let b = addr / 4 mod g.P.banks in
  if b < 0 then b + g.P.banks else b

(* Count the local access [(addr, w)] against its bank, once per distinct
   key: a bank's keys are chained through [t.next] from [t.bank_head].
   Returns the bank's key count after the insert, or 0 if the key was
   already there (lanes reading the same address broadcast). *)
let add_bank_key (t : t) (g : P.gpu_mem) addr (w : int) : int =
  let bank = bank_of g addr in
  let key = (addr lsl 1) lor w in
  let i = ref t.bank_head.(bank) and n = ref 0 in
  while !i >= 0 && t.units.(!i) <> key do
    incr n;
    i := t.next.(!i)
  done;
  if !i >= 0 then 0
  else begin
    let slot = push_unit t key in
    t.next.(slot) <- t.bank_head.(bank);
    t.bank_head.(bank) <- slot;
    !n + 1
  end

(* Whether the line holding byte [addr] hits in [c] (allocated if not). *)
let hit (c : Cache.t) ~addr ~is_write : bool =
  Cache.access c ~addr ~bytes:1 ~is_write = 0

(* -- CPU engine -------------------------------------------------------------- *)

(* Cycles for one access to the line holding [addr]: the latency of the
   first level of the hierarchy that holds it, or of memory. *)
let cpu_access (t : t) (q : queue_state) (m : P.cpu_mem) ~addr ~is_write : int
    =
  if hit (Option.get q.l1) ~addr ~is_write then m.P.l1.Cache.latency
  else
    let l2_hit =
      match q.l2 with Some l2 -> hit l2 ~addr ~is_write | None -> false
    in
    if l2_hit then match m.P.l2 with Some c -> c.Cache.latency | None -> 0
    else
      match t.shared with
      | Some llc ->
          if hit llc ~addr ~is_write then
            match m.P.llc with Some c -> c.Cache.latency | None -> 0
          else m.P.mem_latency
      | None -> m.P.mem_latency

let consume_cpu (t : t) (m : P.cpu_mem) (s : Trace.wg_stats) : unit =
  let qi = s.Trace.queue mod Array.length t.queues in
  let q = t.queues.(qi) in
  let c = t.plat.P.costs in
  let simd = t.simd in
  let compute =
    ((float_of_int s.Trace.int_ops *. c.P.c_int)
    +. (float_of_int s.Trace.float_ops *. c.P.c_float)
    +. (float_of_int s.Trace.special_ops *. c.P.c_special)
    +. (float_of_int s.Trace.branches *. c.P.c_branch))
    /. float_of_int simd
  in
  let dispatch = float_of_int s.Trace.wg_size *. c.P.c_wi_dispatch /. float_of_int simd in
  let barrier =
    float_of_int s.Trace.barrier_rounds
    *. (c.P.c_barrier_round +. (float_of_int s.Trace.wg_size *. c.P.c_barrier_wi))
  in
  (* Vendor CPU runtimes execute [simd] work-items in lockstep vector lanes;
     the k-th access of a lane batch coalesces into one access per distinct
     cache line (an 8-wide unit-stride load is one hardware access). *)
  let sh = t.unit_shift in
  lane_streams t s;
  let memory = ref 0 in
  let n_batches = (s.Trace.wg_size + simd - 1) / simd in
  for b = 0 to n_batches - 1 do
    let first = b * simd in
    let last = Int.min (first + simd) s.Trace.wg_size - 1 in
    for k = 0 to depth t ~first ~last - 1 do
      t.n_units <- 0;
      for l = first to last do
        let ei = kth_event t l k in
        if ei >= 0 then begin
          let addr = s.Trace.ev_addr.(ei) and w = ev_write s ei in
          for ln = addr asr sh to (addr + s.Trace.ev_bytes.(ei) - 1) asr sh do
            add_unit t ln w ~merge:true
          done
        end
      done;
      for i = 0 to t.n_units - 1 do
        let u = t.units.(i) in
        memory :=
          !memory
          + cpu_access t q m ~addr:((u asr 1) lsl sh) ~is_write:(u land 1 = 1)
      done
    done
  done;
  (* Accesses pipeline on real cores; charge a fraction of pure latency. *)
  let memory = float_of_int !memory *. 0.35 in
  t.q_cycles.(qi) <- t.q_cycles.(qi) +. compute +. dispatch +. barrier +. memory;
  t.bd.compute <- t.bd.compute +. compute +. dispatch;
  t.bd.barrier <- t.bd.barrier +. barrier;
  t.bd.memory <- t.bd.memory +. memory

(* -- GPU engine --------------------------------------------------------------- *)

let consume_gpu (t : t) (g : P.gpu_mem) (s : Trace.wg_stats) : unit =
  let qi = s.Trace.queue mod Array.length t.queues in
  let q = t.queues.(qi) in
  let c = t.plat.P.costs in
  let warp = Int.max 1 t.plat.P.warp in
  let compute =
    ((float_of_int s.Trace.int_ops *. c.P.c_int)
    +. (float_of_int s.Trace.float_ops *. c.P.c_float)
    +. (float_of_int s.Trace.special_ops *. c.P.c_special)
    +. (float_of_int s.Trace.branches *. c.P.c_branch))
    /. float_of_int warp
  in
  let barrier = float_of_int s.Trace.barrier_rounds *. c.P.c_barrier_round in
  let n_warps = (s.Trace.wg_size + warp - 1) / warp in
  let sh = t.unit_shift in
  lane_streams t s;
  let memory = ref 0.0 and spm = ref 0.0 in
  for w = 0 to n_warps - 1 do
    let first = w * warp in
    let last = Int.min (first + warp) s.Trace.wg_size - 1 in
    for k = 0 to depth t ~first ~last - 1 do
      (* Coalescing: one transaction per distinct aligned segment among the
         lanes' global accesses; a segment takes its lowest lane's flag. *)
      t.n_units <- 0;
      for l = first to last do
        let ei = kth_event t l k in
        if ei >= 0 then begin
          let space = ev_space s ei in
          if space = global_code || space = constant_code then begin
            let addr = s.Trace.ev_addr.(ei) and wr = ev_write s ei in
            for seg = addr asr sh to (addr + s.Trace.ev_bytes.(ei) - 1) asr sh do
              add_unit t seg wr ~merge:false
            done
          end
        end
      done;
      for i = 0 to t.n_units - 1 do
        let u = t.units.(i) in
        let addr = (u asr 1) lsl sh and is_write = u land 1 = 1 in
        (* A per-CU L1 that caches global loads (Tahiti) absorbs
           repeated and broadcast transactions. *)
        let l1_hit =
          match q.l1 with
          | Some l1 when not is_write -> hit l1 ~addr ~is_write
          | _ -> false
        in
        if l1_hit then
          memory :=
            !memory
            +. float_of_int
                 (match g.P.l1g with Some c -> c.Cache.latency | None -> 4)
        else begin
          let extra =
            match t.shared with
            | Some l2 ->
                if hit l2 ~addr ~is_write then 0.0
                else float_of_int g.P.mem_latency
            | None -> float_of_int g.P.mem_latency
          in
          memory := !memory +. g.P.trans_cost +. extra
        end
      done;
      (* Scratch-pad: serialisation by the worst-loaded bank, counting each
         distinct (address, write) key once. *)
      t.n_units <- 0;
      let conflict = ref 0 in
      for l = first to last do
        let ei = kth_event t l k in
        if ei >= 0 && ev_space s ei = local_code then begin
          let n = add_bank_key t g s.Trace.ev_addr.(ei) (ev_write s ei) in
          if n > !conflict then conflict := n
        end
      done;
      if !conflict > 0 then begin
        spm := !spm +. (g.P.spm_cost *. float_of_int !conflict);
        for i = 0 to t.n_units - 1 do
          t.bank_head.(bank_of g (t.units.(i) asr 1)) <- -1
        done
      end
    done
  done;
  t.q_cycles.(qi) <- t.q_cycles.(qi) +. compute +. barrier +. !memory +. !spm;
  t.bd.compute <- t.bd.compute +. compute;
  t.bd.barrier <- t.bd.barrier +. barrier;
  t.bd.memory <- t.bd.memory +. !memory;
  t.bd.spm <- t.bd.spm +. !spm

let consume (t : t) (s : Trace.wg_stats) : unit =
  t.groups <- t.groups + 1;
  match t.plat.P.mem with
  | P.Cpu_mem m -> consume_cpu t m s
  | P.Gpu_mem g -> consume_gpu t g s

(* -- Results -------------------------------------------------------------------- *)

type result = {
  r_platform : string;
  cycles : float;  (** critical-path cycles (max over queues) *)
  seconds : float;
  per_queue : float array;
  r_compute : float;
  r_memory : float;
  r_barrier : float;
  r_spm : float;
  r_groups : int;
}

let result (t : t) : result =
  let per_queue = Array.copy t.q_cycles in
  let cycles = Array.fold_left max 0.0 per_queue in
  {
    r_platform = t.plat.P.name;
    cycles;
    seconds = cycles /. (t.plat.P.freq_ghz *. 1e9);
    per_queue;
    r_compute = t.bd.compute;
    r_memory = t.bd.memory;
    r_barrier = t.bd.barrier;
    r_spm = t.bd.spm;
    r_groups = t.groups;
  }
