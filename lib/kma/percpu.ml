open Sim

exception Corruption of string

let poison = Params.debug_poison

let o_main_head = 0
let o_main_cnt = 1
let o_aux_head = 2
let o_aux_cnt = 3
let o_target = 4

(* Straight-line instruction charges calibrating the warm fast paths to
   the paper's 13-instruction cookie interface (7 memory/interrupt
   operations + 6 ALU/branch instructions for alloc; 8 + 5 for free). *)
let w_alloc_fast = 6
let w_free_fast = 5
let w_slow_branch = 8

let boot_init (ctx : Ctx.t) =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  for cpu = 0 to ly.Layout.ncpus - 1 do
    for si = 0 to ly.Layout.nsizes - 1 do
      let pcc = Layout.pcc_addr ly ~cpu ~si in
      Memory.set mem (pcc + o_main_head) 0;
      Memory.set mem (pcc + o_main_cnt) 0;
      Memory.set mem (pcc + o_aux_head) 0;
      Memory.set mem (pcc + o_aux_cnt) 0;
      Memory.set mem (pcc + o_target) ly.Layout.params.Params.targets.(si)
    done
  done

(* Interrupt-discipline probe for the lockcheck validator: simulated
   code is about to touch the per-CPU cache state owned by CPU [owner].
   Host-side only — [Machine.running] / [running_irq_off] perform no
   operation, so the probe adds no yield point and simulated cycles are
   bit-identical with the checker on or off. *)
let lockcheck_probe ~owner =
  if Lockcheck.on () then
    match Machine.running () with
    | Some (cpu, time) ->
        Lockcheck.percpu_access ~cpu ~time ~owner
          ~irq_off:(Machine.running_irq_off ())
    | None -> ()

(* Interrupts are disabled throughout; returns 0 on exhaustion.  The
   second component is the layer of satisfaction for the flight
   recorder: [Percpu] when the block came off main or aux (still
   CPU-local), [Global] when a list transfer was needed. *)
let rec alloc_disabled (ctx : Ctx.t) st ~si pcc =
  let h = Machine.read (pcc + o_main_head) in
  if h <> 0 then begin
    Machine.write (pcc + o_main_head) (Machine.read (h + Freelist.link));
    Machine.write (pcc + o_main_cnt) (Machine.read (pcc + o_main_cnt) - 1);
    Machine.work w_alloc_fast;
    (h, Flightrec.Event.Percpu)
  end
  else begin
    Machine.work w_slow_branch;
    let ah = Machine.read (pcc + o_aux_head) in
    if ah <> 0 then begin
      (* Slide aux into main; still purely CPU-local. *)
      st.Kstats.alloc_aux_refills <- st.Kstats.alloc_aux_refills + 1;
      Machine.write (pcc + o_main_head) ah;
      Machine.write (pcc + o_main_cnt) (Machine.read (pcc + o_aux_cnt));
      Machine.write (pcc + o_aux_head) 0;
      Machine.write (pcc + o_aux_cnt) 0;
      alloc_disabled ctx st ~si pcc
    end
    else begin
      st.Kstats.alloc_misses <- st.Kstats.alloc_misses + 1;
      let head, count = Global.get_list ctx ~si in
      if count = 0 then (0, Flightrec.Event.Global)
      else begin
        (* First block satisfies the request; the rest become main. *)
        Machine.write (pcc + o_main_head)
          (Machine.read (head + Freelist.link));
        Machine.write (pcc + o_main_cnt) (count - 1);
        (head, Flightrec.Event.Global)
      end
    end
  end

(* Debug checks: a freed block must still carry its poison when it is
   handed out again (use-after-free write detector), and a block being
   freed must not already be fully poisoned (double-free detector). *)
let check_poison_on_alloc (ctx : Ctx.t) ~si a =
  let words = Params.size_words (Ctx.params ctx) si in
  let rec go w =
    if w < words then
      if Machine.read (a + w) <> poison then
        raise
          (Corruption
             (Printf.sprintf
                "use-after-free write in block %d (class %d, word %d)" a si
                w))
      else go (w + 1)
  in
  go 3;
  (* Break the poison so the double-free heuristic cannot fire on the
     block's first legitimate free (kernels write an "allocated"
     pattern for the same reason). *)
  if words > 3 then Machine.write (a + 3) 0x0A110CED

let apply_poison_on_free (ctx : Ctx.t) ~si a =
  let words = Params.size_words (Ctx.params ctx) si in
  if words > 3 then begin
    let rec all_poisoned w =
      w >= words
      || (Machine.read (a + w) = poison && all_poisoned (w + 1))
    in
    if all_poisoned 3 then
      raise
        (Corruption
           (Printf.sprintf "probable double free of block %d (class %d)" a
              si));
    for w = 3 to words - 1 do
      Machine.write (a + w) poison
    done
  end

let alloc (ctx : Ctx.t) ~si =
  let cpu = Machine.cpu_id () in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu ~si in
  let st = Kstats.size ctx.Ctx.stats si in
  st.Kstats.allocs <- st.Kstats.allocs + 1;
  Machine.irq_disable ();
  lockcheck_probe ~owner:cpu;
  let a, layer = alloc_disabled ctx st ~si pcc in
  Machine.irq_enable ();
  if Trace.on () then
    Trace.emit
      (if a = 0 then Flightrec.Event.Alloc_fail { si }
       else Flightrec.Event.Alloc { si; layer });
  if a <> 0 && (Ctx.params ctx).Params.debug then
    check_poison_on_alloc ctx ~si a;
  a

let free (ctx : Ctx.t) ~si a =
  assert (a <> 0);
  if (Ctx.params ctx).Params.debug then apply_poison_on_free ctx ~si a;
  let cpu = Machine.cpu_id () in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu ~si in
  let st = Kstats.size ctx.Ctx.stats si in
  st.Kstats.frees <- st.Kstats.frees + 1;
  Machine.irq_disable ();
  lockcheck_probe ~owner:cpu;
  let layer = ref Flightrec.Event.Percpu in
  let cnt = Machine.read (pcc + o_main_cnt) in
  let tgt = Machine.read (pcc + o_target) in
  if cnt < tgt then begin
    Machine.write (a + Freelist.link) (Machine.read (pcc + o_main_head));
    Machine.write (pcc + o_main_head) a;
    Machine.write (pcc + o_main_cnt) (cnt + 1);
    Machine.work w_free_fast
  end
  else begin
    Machine.work w_slow_branch;
    (* Pressure-enabled runs charge one more read of the target word
       on this path.  The word cannot change, but dropping the read
       would move every pressure-mode cycle count (E8's rate-0 pin
       included), so it stays until a change re-pins them. *)
    if ctx.Ctx.pressure then ignore (Machine.read (pcc + o_target) : int);
    let acnt = Machine.read (pcc + o_aux_cnt) in
    if acnt <> 0 then begin
      st.Kstats.free_misses <- st.Kstats.free_misses + 1;
      layer := Flightrec.Event.Global;
      (* aux holds a full target-sized list: one O(1) hand-off to the
         global layer. *)
      Global.put_list ctx ~si
        ~head:(Machine.read (pcc + o_aux_head))
        ~count:acnt
    end;
    (* Slide the full main into aux, start a fresh main with [a]. *)
    Machine.write (pcc + o_aux_head) (Machine.read (pcc + o_main_head));
    Machine.write (pcc + o_aux_cnt) cnt;
    Machine.write (a + Freelist.link) 0;
    Machine.write (pcc + o_main_head) a;
    Machine.write (pcc + o_main_cnt) 1
  end;
  Machine.irq_enable ();
  if Trace.on () then Trace.emit (Flightrec.Event.Free { si; layer = !layer })

let flush_half (ctx : Ctx.t) ~si ~tgt pcc head_off cnt_off =
  let h = Machine.read (pcc + head_off) in
  let c = Machine.read (pcc + cnt_off) in
  Machine.write (pcc + head_off) 0;
  Machine.write (pcc + cnt_off) 0;
  if c = tgt then Global.put_list ctx ~si ~head:h ~count:c
  else if c > 0 then Global.put_partial ctx ~si ~head:h ~count:c

let drain (ctx : Ctx.t) ~si =
  let cpu = Machine.cpu_id () in
  let ly = ctx.Ctx.layout in
  let pcc = Layout.pcc_addr ly ~cpu ~si in
  let tgt = (Ctx.params ctx).Params.targets.(si) in
  Machine.irq_disable ();
  lockcheck_probe ~owner:cpu;
  flush_half ctx ~si ~tgt pcc o_main_head o_main_cnt;
  flush_half ctx ~si ~tgt pcc o_aux_head o_aux_cnt;
  Machine.irq_enable ()

(* Light reap: hand only the reserve ([aux]) list back, keeping the hot
   [main] list so the CPU's fast path stays warm through a pressure
   pass. *)
let drain_aux (ctx : Ctx.t) ~si =
  let cpu = Machine.cpu_id () in
  let ly = ctx.Ctx.layout in
  let pcc = Layout.pcc_addr ly ~cpu ~si in
  let tgt = (Ctx.params ctx).Params.targets.(si) in
  Machine.irq_disable ();
  lockcheck_probe ~owner:cpu;
  flush_half ctx ~si ~tgt pcc o_aux_head o_aux_cnt;
  Machine.irq_enable ()

let cached_blocks_oracle (ctx : Ctx.t) ~cpu ~si =
  let mem = Ctx.memory ctx in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu ~si in
  Memory.get mem (pcc + o_main_cnt) + Memory.get mem (pcc + o_aux_cnt)

let cache_oracle (ctx : Ctx.t) ~cpu ~si =
  let mem = Ctx.memory ctx in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu ~si in
  ( (Memory.get mem (pcc + o_main_head), Memory.get mem (pcc + o_main_cnt)),
    (Memory.get mem (pcc + o_aux_head), Memory.get mem (pcc + o_aux_cnt)),
    Memory.get mem (pcc + o_target) )
