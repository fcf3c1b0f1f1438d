(** Memory-pressure subsystem: [kmem_reap]-style draining with a
    bounded reap-and-retry around every allocation, built from the
    administrative operations the paper's Design section already
    requires (per-CPU drains, global-layer drains, coalesce-to-page
    returns).

    The paper's Future Directions section proposes adjusting [target]
    under memory pressure.  Experiment E8 measured that proposal (a
    multiplicative-shrink/additive-grow law on [target]/[gbltarget])
    against the static {!Params} bounds with the same reap-and-retry:
    the static bounds gave more throughput and held fewer pages, so
    [target]/[gbltarget] are the {!Params} constants in every mode and
    this module only reaps.

    The subsystem is strictly opt-in: until {!enable} is called the
    allocator's behaviour, cycle counts and statistics are bit-for-bit
    those of the plain paper allocator (every hook is a single host
    branch).  A denied allocation is retried up to eight times, each
    retry preceded by a reap pass (light first, then full), before
    degrading to failure. *)

val enable : Ctx.t -> unit
(** [enable ctx] arms the subsystem (host-side switch): {!Kmem} /
    {!Cookie} allocation paths gain the reap-and-retry loop. *)

(** {1 Simulated operations} *)

val reap : Ctx.t -> full:bool -> int
(** [reap ctx ~full] runs one pressure pass on the current simulated
    CPU and returns the number of physical pages returned to the VM
    system.  [full = false]: flush this CPU's reserve ([aux]) lists
    and trim each global layer to one list.  [full = true]: flush both
    halves of this CPU's caches and empty the global layer, so every
    drainable page goes back.  Emits a [Reap] flight-recorder event. *)

val with_retries : Ctx.t -> (unit -> int) -> int
(** [with_retries ctx attempt] is [attempt ()] with the bounded
    reap-and-retry path of {!Kmem.try_alloc} wrapped around it when
    the subsystem is enabled: on a 0 result, {!reap} (light first,
    full from the second retry on) and try again, up to eight times —
    stopping early once a full reap reclaims nothing while the VM
    system is empty.  Returns 0 only when the retries are exhausted or
    provably hopeless. *)
