(** ILP scaling (paper Fig. 8): per-scheme speedup as the issue width
    grows, relative to the same scheme at issue width 1.

    Derived from a {!Perf_sweep.t}; the paper plots this per benchmark to
    show that SCED often scales better than NOED (the redundant stream's
    extra ILP) while DCED starts ahead and flattens. *)

val speedup :
  Perf_sweep.t ->
  benchmark:string ->
  scheme:Casted_detect.Scheme.t ->
  issue:int ->
  delay:int ->
  float

(** Every Fig-8 panel, one per benchmark: rows = scheme, columns =
    issue width, at delay 1 (the paper does not state the delay; each
    panel's title records it). *)
val render_all : Perf_sweep.t -> string
