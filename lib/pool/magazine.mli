(** The split freelist of the paper's per-CPU caching layer, as a plain
    data structure over OCaml values: a [main] stack served first and an
    [aux] stack holding one full target-sized batch in reserve.  Both
    are array stacks, so a hit — the paper's few-instruction pop or
    push — is an index bump plus one read or write, with no allocation.

    Invariants (maintained by {!Pool}, checkable with {!check}):
    - [size main <= target] and [size aux] is [0] or [target];
    - a put onto a full [main] requires the caller to first hand off
      [aux] (if full) and slide [main] into [aux];
    - total occupancy never exceeds [2 * target].

    Batches are arrays ordered bottom to top: the last element is the
    next one {!get} returns.  An emptied array is kept as the spare
    [aux], so a magazine that never flushes never allocates after its
    first [target] puts.  Popped slots are not cleared, so the two
    arrays may keep up to [2 * target] stale references alive until
    they are overwritten.

    Not thread-safe: one magazine belongs to one domain. *)

type 'a t

val create : target:int -> 'a t
(** @raise Invalid_argument if [target < 1]. *)

val target : 'a t -> int
val size : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> 'a
(** [get t] pops from [main], sliding [aux] into [main] first if [main]
    is empty.
    @raise Invalid_argument if the magazine is empty (test
    {!is_empty} first). *)

val put : 'a t -> 'a -> [ `Ok | `Flush of 'a array ]
(** [put t x] pushes onto [main].  When [main] is full it slides [main]
    into [aux] and starts a fresh [main] with [x]; if [aux] was already
    full, its array is returned as [`Flush batch] (exactly [target]
    elements, ownership passes to the caller) for the caller to hand to
    the depot. *)

val install : 'a t -> 'a array -> unit
(** [install t batch] adopts a depot batch (at most [target] elements)
    as [main], without copying; the magazine owns the array afterwards.
    @raise Invalid_argument if [main] is non-empty or the batch is too
    long. *)

val drain : 'a t -> 'a list
(** [drain t] empties the magazine, returning everything it held in
    {!get} order. *)

val check : 'a t -> bool
(** Invariant oracle for tests. *)
