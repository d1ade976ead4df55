(** A set-associative, write-allocate, write-back cache with LRU
    replacement. Addresses are byte addresses; the cache tracks lines. *)

type config = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
  latency : int;  (** cycles on hit *)
}

type t = {
  cfg : config;
  sets : int;
  tags : int array;  (** [set * ways + way] -> line tag, -1 = invalid *)
  lru : int array;
      (** per slot, [tick lsl 1 lor dirty]: the tick of the last access
          (larger = more recent; ticks are unique, so the dirty bit never
          decides the LRU order) and whether the line is dirty *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let create (cfg : config) : t =
  if cfg.size_bytes mod (cfg.line_bytes * cfg.ways) <> 0 then
    invalid_arg "Cache.create: size must divide into ways * line";
  let sets = cfg.size_bytes / (cfg.line_bytes * cfg.ways) in
  {
    cfg;
    sets;
    tags = Array.make (sets * cfg.ways) (-1);
    lru = Array.make (sets * cfg.ways) 0;
    tick = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let reset (c : t) : unit =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  Array.fill c.lru 0 (Array.length c.lru) 0;
  c.tick <- 0;
  c.hits <- 0;
  c.misses <- 0;
  c.writebacks <- 0

let line_of (c : t) (addr : int) : int = addr / c.cfg.line_bytes

(** Access one cache line. Returns [true] on hit. On miss the line is
    allocated (write-allocate for writes too), possibly writing back a
    dirty victim. *)
let access_line (c : t) ~(line : int) ~(is_write : bool) : bool =
  c.tick <- c.tick + 1;
  let set = line mod c.sets in
  let base = set * c.cfg.ways in
  let ways = c.cfg.ways in
  let w = ref 0 in
  while !w < ways && c.tags.(base + !w) <> line do
    incr w
  done;
  if !w < ways then begin
    let w = !w in
    c.hits <- c.hits + 1;
    c.lru.(base + w) <-
      (c.tick lsl 1) lor (c.lru.(base + w) land 1) lor Bool.to_int is_write;
    true
  end
  else begin
    c.misses <- c.misses + 1;
    (* Choose the LRU victim. *)
    let victim = ref 0 in
    for w = 1 to c.cfg.ways - 1 do
      if c.lru.(base + w) < c.lru.(base + !victim) then victim := w
    done;
    let w = !victim in
    if c.tags.(base + w) >= 0 && c.lru.(base + w) land 1 = 1 then
      c.writebacks <- c.writebacks + 1;
    c.tags.(base + w) <- line;
    c.lru.(base + w) <- (c.tick lsl 1) lor Bool.to_int is_write;
    false
  end

(** Access [bytes] bytes at [addr]; accesses spanning lines touch each line.
    Returns the number of line misses (0 = all hits). *)
let access (c : t) ~(addr : int) ~(bytes : int) ~(is_write : bool) : int =
  let first = line_of c addr in
  let last = line_of c (addr + Int.max 1 bytes - 1) in
  let misses = ref 0 in
  for line = first to last do
    if not (access_line c ~line ~is_write) then incr misses
  done;
  !misses

type stats = { s_hits : int; s_misses : int; s_writebacks : int }

let stats (c : t) : stats =
  { s_hits = c.hits; s_misses = c.misses; s_writebacks = c.writebacks }
