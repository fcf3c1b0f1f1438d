(** The global layer for OCaml domains, after the paper's global
    freelist: a mutex-protected stock of full target-sized batches,
    exchanged whole with per-domain magazines — one lock round-trip
    moves [target] objects.

    When the depot overflows its bound, the excess batch is simply
    dropped: under a garbage collector the "coalescing layers" are the
    GC itself, which is the per-design substitution documented in
    DESIGN.md.

    Invariants: the stock is read and written only under the depot
    mutex; it holds [nbatches <= max_batches] batches; every stocked
    batch has between [1] and [target] items, so an array {!get}
    returns is empty only when the depot is; the loose bucket holds
    fewer than [target] items.  {!check} verifies these.  [target] and
    [max_batches] are fixed at {!create}, so a batch taken by {!get}
    always fits a magazine of the same [target].

    Batches are arrays, stored and handed out whole: a magazine adopts
    the array it gets and flushes the array it filled, so an exchange
    copies nothing.  The odd-sized returns of {!put_partial} stay a
    list internally, off the hot path.

    Each data-path exchange ({!get}, {!put}, {!put_partial}) is one
    lock acquisition, recorded in the owning pool's {!Pstats} together
    with whether the mutex was held by another domain at acquire time
    (a failed [try_lock]).  The depot has its own counter cell, written
    only under the mutex. *)

type 'a t

val create : stats:Pstats.t -> target:int -> max_batches:int -> 'a t
(** [target] is the batch size magazines exchange; odd-sized returns
    are regrouped into [target]-sized batches.  Lock acquisitions are
    counted in [stats].
    @raise Invalid_argument if [target < 1] or [max_batches < 0]. *)

val get : 'a t -> 'a array
(** [get t] takes one batch (between [1] and [target] items, bottom to
    top), or [[||]] when the depot is empty.  The caller owns the
    array. *)

val put : 'a t -> 'a array -> [ `Kept | `Dropped ]
(** [put t batch] stores a batch, taking ownership of the array;
    [`Dropped] when the depot is full (the batch is released to the
    GC).
    @raise Invalid_argument if [batch] is empty or longer than
    [target]. *)

val put_partial : 'a t -> 'a list -> unit
(** [put_partial t items] accepts an odd-sized return (magazine drain at
    domain exit), regrouping into batches internally; overflow beyond
    the bound is dropped. *)

val batches : 'a t -> int
(** Current stock (for monitoring; momentarily stale by nature). *)

val drain : 'a t -> 'a list
(** [drain t] empties the depot (tests, shutdown), newest batch first,
    each in {!get}-then-pop order. *)

val check : 'a t -> bool
(** Invariant oracle for tests, taken under the lock. *)
