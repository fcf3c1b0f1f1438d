(** The general-purpose kernel memory allocator: standard System V
    interface ([kmem_alloc] / [kmem_free]).

    This is the paper's primary contribution assembled from its four
    layers.  Requests up to the largest managed size class go through
    the per-CPU caching layer (13 simulated instructions warm via the
    {!Cookie} interface, 35/32 via this standard interface, which pays a
    function call plus a size-to-class table lookup).  Larger requests
    bypass layers 1–3 and are served by the coalesce-to-vmblk layer.

    All allocation entry points must run on a simulated CPU (inside
    {!Sim.Machine.run}); {!create} and the oracles are host-side. *)

exception Kmem_exhausted
(** Raised when neither virtual nor physical memory can satisfy a
    request.  (Named to avoid clashing with [Stdlib.Out_of_memory].) *)

exception Corruption of string
(** Raised by the debug kernel ([Params.debug]): a freed block's poison
    was overwritten (use-after-free write) or a block was freed while
    fully poisoned (probable double free). *)

type t = Ctx.t

val create : Sim.Machine.t -> ?params:Params.t -> ?numa_global:bool -> unit -> t
(** [create machine ()] lays out and boot-initialises the allocator in
    [machine]'s memory (host-side, uncharged — this is boot).

    [numa_global] (default [false]) turns on the per-node global layer:
    each NUMA node gets its own gblfree pool and lock, and every CPU
    drains/fills against its node's pool (see {!Global}).  Off, the
    allocator is bit-identical to the pre-NUMA build on any machine.

    @raise Invalid_argument if the memory is too small for one vmblk. *)

(** {1 Simulated operations (standard interface)} *)

val alloc : t -> bytes:int -> int
(** [alloc t ~bytes] returns the address of a block of at least [bytes]
    bytes, running on the current simulated CPU.
    @raise Kmem_exhausted when memory is exhausted.
    @raise Invalid_argument if [bytes <= 0] (host-side check). *)

val try_alloc : t -> bytes:int -> int option
(** Like {!alloc} but returns [None] on exhaustion.  With the
    {!Pressure} subsystem enabled, a denied attempt first walks the
    bounded reap-and-retry path (reap, retry — light reap first, then
    full) and returns [None] only when the retries are exhausted or
    provably hopeless. *)

val alloc_class : t -> si:int -> int
(** [alloc_class t ~si] allocates straight from a resolved size class
    (the {!Cookie} path), 0 on exhaustion — same {!Pressure} retry
    semantics as {!try_alloc}, without the standard interface's
    size-to-class lookup charge. *)

val alloc_zeroed : t -> bytes:int -> int
(** [kmem_zalloc]: like {!alloc} with the block cleared (the zeroing
    writes are charged). *)

val free : t -> addr:int -> bytes:int -> unit
(** [free t ~addr ~bytes] frees a block previously allocated with the
    same size.  System V semantics: the caller supplies the size. *)

val size_index : t -> bytes:int -> int option
(** [size_index t ~bytes] performs the charged table lookup mapping a
    request size to its class; [None] for large requests. *)

(** {1 Administrative operations (simulated)} *)

val reap_local : t -> unit
(** [reap_local t] drains every per-CPU cache of the current CPU into
    the global layer. *)

val reap_global : t -> unit
(** [reap_global t] pushes everything in the global layer down through
    the coalescing layers, returning fully-free pages to the VM system.
    Run {!reap_local} on every CPU first for a full shakeout. *)

(** {1 Accessors and oracles (host-side)} *)

val machine : t -> Sim.Machine.t
val layout : t -> Layout.t
val params : t -> Params.t
val stats : t -> Kstats.t
val vmsys : t -> Sim.Vmsys.t

val granted_pages_oracle : t -> int
(** Physical pages currently held from the VM system. *)
