(* In-memory spans around the benchmark's calls into the program's layers.

   Tracing is off in the end-to-end run, where [span] is a plain call. In
   the traced run every span records its name, parent, job id, start and
   duration; the list is written out as Chrome trace-event JSON when the
   run ends.

   Some public calls bundle several layers ([Compile_cache.compile] runs
   lex -> parse -> lower -> normalize -> Grover -> prepare). The traced run
   re-runs those stages through their own public functions right after the
   bundled call ([replay]) and records them as children of the bundled
   span, so its self time is the cache's own cost. The clock pauses while a
   replay runs: replayed stages are laid out inside their parent on the
   virtual time line, and the traced wall time excludes them. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  job : int;
  start : float;  (** virtual clock, seconds *)
  dur : float;
  count : int;  (** calls aggregated into this span; 1 for a plain call *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let job = ref (-1)

(* Open spans, innermost first: (id, start). *)
let stack : (int * float) list ref = ref []

(* Seconds spent in replays so far; [now] subtracts them. *)
let paused = ref 0.0

(* Inside a replay: the parent's id and the next free offset in it. *)
let replaying : (int * float ref) option ref = ref None

let now () = Unix.gettimeofday () -. !paused

let reset () =
  recorded := [];
  next_id := 0;
  job := -1;
  stack := [];
  paused := 0.0;
  replaying := None

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let add ~id ~name ~parent ~start ~dur ~count =
  recorded := { id; name; parent; job = !job; start; dur; count } :: !recorded

let timed (f : unit -> 'a) : 'a * float =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(** [span name f] runs [f], recording a span when tracing is on. *)
let span (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else
    match !replaying with
    | Some (parent, offset) ->
        let r, dur = timed f in
        add ~id:(fresh_id ()) ~name ~parent ~start:!offset ~dur ~count:1;
        offset := !offset +. dur;
        r
    | None ->
        let id = fresh_id () in
        let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
        let start = now () in
        stack := (id, start) :: !stack;
        Fun.protect
          ~finally:(fun () ->
            stack := List.tl !stack;
            add ~id ~name ~parent ~start ~dur:(now () -. start) ~count:1)
          f

(** Record [count] calls totalling [dur] seconds, made inside the innermost
    open span, as one child of it (per-work-group callbacks would otherwise
    produce one span each). *)
let aggregate (name : string) ~(dur : float) ~(count : int) : unit =
  if !enabled then
    match !stack with
    | (parent, start) :: _ ->
        add ~id:(fresh_id ()) ~name ~parent ~start ~dur ~count
    | [] -> invalid_arg "Spans.aggregate: no open span"

(** Run [f] as a replay of the span that finished last: the spans [f]
    opens become its children, and the clock pauses meanwhile. Skipped
    when tracing is off. *)
let replay (f : unit -> unit) : unit =
  if !enabled then
    match !recorded with
    | [] -> invalid_arg "Spans.replay: no finished span"
    | last :: _ ->
        let t0 = Unix.gettimeofday () in
        replaying := Some (last.id, ref last.start);
        Fun.protect
          ~finally:(fun () ->
            replaying := None;
            paused := !paused +. (Unix.gettimeofday () -. t0))
          f

(** Self time per span name: each span's duration minus the durations of
    its children, summed by name. *)
let self_times () : (string, float) Hashtbl.t =
  let child_sum : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (s.dur +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.parent)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name)))
    !recorded;
  by_name

let json_string (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Write the recorded spans as Chrome trace-event JSON ("X" events,
    microseconds from the earliest span); [meta] lands in "otherData". *)
let write_chrome (path : string) ~(meta : (string * string) list) : unit =
  let spans = List.rev !recorded in
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          let cat =
            match String.index_opt s.name '.' with
            | Some k -> String.sub s.name 0 k
            | None -> s.name
          in
          Printf.fprintf oc
            "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%d,\"count\":%d}}"
            (if i = 0 then "" else ",\n")
            (json_string s.name) (json_string cat)
            ((s.start -. origin) *. 1e6)
            (s.dur *. 1e6) s.id s.parent s.job s.count)
        spans;
      output_string oc "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
      output_string oc
        (String.concat ","
           (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) meta));
      output_string oc "}}\n")
