(** The absolute chunk grid every Monte-Carlo campaign advances on.

    Trials are grouped into chunks of {!size} consecutive indices,
    anchored at trial 0: chunk [i] is [[i * size, (i + 1) * size)],
    clipped to the campaign length. Early-stop checks and banked
    partial tallies happen only at chunk boundaries, and shard [k] of
    [n] owns exactly the chunks whose index is congruent to [k] modulo
    [n]. The grid is the same for every shard, pool size and kill
    point, so the [n] shards partition [[0, trials)] and their summed
    tallies equal the single-process campaign's.

    This module is the one owner of that arithmetic: the campaign loop
    ({!Casted_sim.Montecarlo}), the store-backed resume
    ({!Casted_engine.Engine}) and the shard merge
    ({!Casted_store.Store.merge_shards}) all ask it. A shard is
    [(k, n)] with [0 <= k < n]. *)

(** Trials per chunk (64). *)
val size : int

(** [owns ~shard lo] — the chunk starting at trial [lo] belongs to
    [shard]. *)
val owns : shard:int * int -> int -> bool

(** [chunk_end ~trials lo] is the end of the chunk holding trial [lo]:
    the first grid point above [lo], clipped to [trials]. A campaign
    resumed at an index off the grid steps there first, so every later
    chunk, early-stop check and bank point is on the grid. *)
val chunk_end : trials:int -> int -> int

(** The [[lo, hi)] bounds of [shard]'s chunks over [[0, trials)], in
    trial order. *)
val chunks : shard:int * int -> trials:int -> (int * int) list

(** How many of the trials in [[0, trials)] [shard] owns. *)
val share : shard:int * int -> trials:int -> int

(** [resume_index ~shard ~trials banked] is the trial index at which a
    partial tally of [banked] owned trials resumes: the end of the
    owned chunk where the running owned count reaches [banked] ([0] for
    [banked = 0]). [None] when [banked] is not the size of a whole
    prefix of [shard]'s chunks. *)
val resume_index : shard:int * int -> trials:int -> int -> int option
