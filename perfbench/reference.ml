(* Hand-written expectations the benchmark checks the program against.
   Nothing here is computed by the program: the buffer lists follow
   Table III and each case's [remove] selection, the promotion set follows
   the bidirectional optimizer's documented behaviour, and the np rows and
   Table IV counts are copied from EXPERIMENTS.md. *)

(** Local buffers Grover must disable in each case's without_lm version. *)
let disabled_buffers : (string * string list) list =
  [
    ("AMD-SS", [ "lpat" ]);
    ("AMD-MT", [ "lm" ]);
    ("NVD-MT", [ "lm" ]);
    ("AMD-RG", [ "tile" ]);
    ("AMD-MM", [ "Bs" ]);
    ("NVD-MM-A", [ "As" ]);
    ("NVD-MM-B", [ "Bs" ]);
    ("NVD-MM-AB", [ "As"; "Bs" ]);
    ("NVD-NBody", [ "sh" ]);
    ("PAB-ST", [ "t" ]);
    ("ROD-SC", [ "c" ]);
    ("TNG-GEMM4", [ "As" ]);
  ]

(** Cases whose without_lm form [Promote.run] stages back into local
    memory; every other case must promote nothing. *)
let promoting : string list =
  [ "AMD-MM"; "NVD-MM-A"; "NVD-MM-B"; "NVD-MM-AB"; "NVD-NBody"; "TNG-GEMM4" ]

(** Table IV per-platform (gain, loss, similar) counts over the paper's
    eleven cases (TNG-GEMM4 is not a paper case and is left out). *)
let table4 : (string * (int * int * int)) list =
  [ ("SNB", (6, 2, 3)); ("Nehalem", (5, 1, 5)); ("MIC", (5, 2, 4)) ]

let table4_excluded = [ "TNG-GEMM4" ]

type np_row = { np : string;  (** two decimals, as printed *) verdict : string }

(** Load the np rows: tab-separated [figure case platform np verdict];
    blank lines and [#] comments are skipped. Keyed by (case, platform). *)
let load_np (path : string) : (string * string, np_row) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match String.split_on_char '\t' line with
            | [ _fig; case; platform; np; verdict ] ->
                Hashtbl.replace tbl (case, platform) { np; verdict }
            | _ -> failwith (Printf.sprintf "%s: malformed row %S" path line)
        done
      with End_of_file -> ());
  tbl
