open Sim

(* Bound on the reap-and-retry loop before an allocation degrades to
   failure. *)
let max_retries = 8

let enable (ctx : Ctx.t) = ctx.Ctx.pressure <- true

(* One kmem_reap pass on the current CPU.  Light: flush the reserve
   (aux) lists and trim the global layer to one list per class.  Full:
   flush both halves and empty the global layer.  Either way the
   coalesce-to-page layer returns every page that becomes fully free
   to the VM system immediately, which is what makes the retry after a
   genuine (non-injected) denial succeed.  Returns the number of
   physical pages that made it back. *)
let reap (ctx : Ctx.t) ~full =
  let v = ctx.Ctx.vmsys in
  let before = Vmsys.reclaim_count v in
  if Trace.on () then Trace.emit (Flightrec.Event.Reap { full });
  let nsizes = ctx.Ctx.layout.Layout.nsizes in
  for si = 0 to nsizes - 1 do
    if full then begin
      Percpu.drain ctx ~si;
      Global.drain_all ctx ~si
    end
    else begin
      Percpu.drain_aux ctx ~si;
      Global.trim ctx ~si ~keep:1
    end
  done;
  let pages = Vmsys.reclaim_count v - before in
  let st = ctx.Ctx.stats in
  st.Kstats.reaps <- st.Kstats.reaps + 1;
  st.Kstats.reap_pages <- st.Kstats.reap_pages + pages;
  pages

(* The bounded retry path wrapped around an allocation attempt:
   attempt, and on failure reap + retry, degrading to 0 after
   [max_retries] attempts or as soon as the situation is provably
   hopeless (nothing reclaimed and the VM system empty). *)
let with_retries (ctx : Ctx.t) (attempt : unit -> int) =
  if not ctx.Ctx.pressure then attempt ()
  else begin
    let st = ctx.Ctx.stats in
    let rec go n =
      let a = attempt () in
      if a <> 0 then begin
        if n > 0 then
          st.Kstats.pressure_retries <- st.Kstats.pressure_retries + 1;
        a
      end
      else if n >= max_retries then begin
        st.Kstats.pressure_failures <- st.Kstats.pressure_failures + 1;
        0
      end
      else begin
        let reclaimed = reap ctx ~full:(n > 0) in
        if reclaimed = 0 && Vmsys.available ctx.Ctx.vmsys = 0 && n > 0 then begin
          (* A full reap found nothing and the VM system is empty:
             every remaining block is live (or cached by another CPU,
             which we cannot touch) — retrying cannot help. *)
          st.Kstats.pressure_failures <- st.Kstats.pressure_failures + 1;
          0
        end
        else go (n + 1)
      end
    in
    go 0
  end
