(** A per-domain object pool for OCaml 5, after McKenney & Slingwine's
    per-CPU kernel memory allocator (USENIX Winter 1993).

    Each domain keeps a {!Magazine} (the paper's per-CPU cache: a split
    freelist bounded by [2 * target]) it can use without any
    synchronisation; magazines exchange whole target-sized batches with
    a mutex-protected {!Depot} (the paper's global layer), so the lock
    is touched at most once per [target] operations.  As in the paper,
    the geometry ([target] and the depot bound) is fixed when the pool
    is created.  The paper's coalescing layers have no analogue under a
    GC: objects dropped on depot overflow are simply collected (see
    DESIGN.md).

    Use it for expensive-to-build, resettable objects (buffers, large
    records, scratch tables):

    {[
      let pool = Pool.create ~ctor:(fun () -> Bytes.create 65536) ()
      let buf = Pool.alloc pool in
      (* ... use buf ... *)
      Pool.release pool buf
    ]}

    [alloc]/[release] are safe from any domain; each domain transparently
    gets its own magazine.  An object must be released at most once and
    not used after release (not checkable here; the test suite checks it
    for the pool's own traffic).

    The hit path — an [alloc] or [release] served by the calling
    domain's magazine — does one [Domain.DLS] lookup (the domain's slot:
    its magazine and its {!Pstats} cell), no atomic operation and no
    allocation.  Magazine slots are not cleared as objects leave them,
    so each domain's magazine may keep up to [2 * target] stale
    references alive until they are overwritten: an object handed out,
    dropped to the GC or drained by {!flush_local} can outlive its last
    use by that much. *)

type 'a t

val create :
  ctor:(unit -> 'a) ->
  ?reset:('a -> unit) ->
  ?target:int ->
  ?depot_batches:int ->
  unit ->
  'a t
(** [create ~ctor ()] builds a pool.  [reset] is applied on release
    (e.g. zeroing); [target] (default 16) bounds each magazine half;
    [depot_batches] (default 32) bounds the depot, beyond which batches
    are dropped to the GC.
    @raise Invalid_argument if [target < 1] or [depot_batches < 0]. *)

val alloc : 'a t -> 'a
(** [alloc t] takes an object: magazine first, then a depot batch, then
    [ctor]. *)

val release : 'a t -> 'a -> unit
(** [release t x] resets and returns an object to the current domain's
    magazine, flushing a full batch to the depot as needed.  If [reset]
    raises, the exception propagates and [x] is abandoned to the GC:
    it re-enters neither magazine nor depot and is not counted as a
    free. *)

val with_obj : 'a t -> ('a -> 'b) -> 'b
(** [with_obj t f] allocates, runs [f], and releases (also on
    exceptions). *)

val flush_local : 'a t -> unit
(** [flush_local t] drains the calling domain's magazine to the depot
    (call before a domain exits to keep its stock usable by others). *)

val refill : 'a t -> batches:int -> int
(** [refill t ~batches] constructs up to [batches] full target-sized
    batches with [ctor] and deposits them, stopping early once the
    depot is full; returns the number kept.  This is the SpeedMalloc
    dedicated-allocation-core hook (PAPERS.md): a domain that loops on
    [refill] keeps worker domains from ever paying constructor cost.
    @raise Invalid_argument if [batches < 0]. *)

val stats : 'a t -> Pstats.t

val target : 'a t -> int
(** The magazine target. *)

val depot_batches : 'a t -> int
(** Current depot stock, in batches. *)

val check : 'a t -> bool
(** Invariant oracle for tests: {!Magazine.check} on the calling
    domain's magazine and {!Depot.check} on the depot. *)
