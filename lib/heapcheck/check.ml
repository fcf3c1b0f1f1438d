open Sim

type rule =
  | Gbl_count
  | Percpu_count
  | Page_nfree
  | Minhint
  | Span_state
  | Conservation
  | Dup_block

let rule_name = function
  | Gbl_count -> "gbl-count"
  | Percpu_count -> "percpu-count"
  | Page_nfree -> "page-nfree"
  | Minhint -> "minhint"
  | Span_state -> "span-state"
  | Conservation -> "conservation"
  | Dup_block -> "dup-block"

type violation = { rule : rule; detail : string }

(* --- the pure structural check --- *)

(* Bounded walk of a block chain (word-0 links): calls [f] per block
   and returns [Some length], or [None] if the chain exceeds [limit]
   nodes (corrupt link or cycle).  Never raises: a checker that crashes
   on the corruption it exists to diagnose is useless. *)
let walk_chain mem ~limit head f =
  let rec go a n =
    if a = 0 then Some n
    else if n >= limit then None
    else begin
      f a;
      go (Memory.get mem (a + Kma.Freelist.link)) (n + 1)
    end
  in
  go head 0

let check ?live (k : Kma.Kmem.t) =
  let ctx : Kma.Ctx.t = k in
  let mem = Kma.Ctx.memory ctx in
  let ly = ctx.Kma.Ctx.layout in
  let p = Kma.Ctx.params ctx in
  let nsizes = ly.Kma.Layout.nsizes in
  let ncpus = ly.Kma.Layout.ncpus in
  let pdw = ly.Kma.Layout.pd_words in
  let viols = ref [] in
  let add rule fmt =
    Printf.ksprintf (fun detail -> viols := { rule; detail } :: !viols) fmt
  in
  (* Oracles guard their walks with a node cap; a corrupt next pointer
     must surface as a violation, not an exception. *)
  let guard rule what f ~fallback =
    try f ()
    with Invalid_argument msg ->
      add rule "%s walk aborted: %s" what msg;
      fallback
  in
  let bpp si = Kma.Params.blocks_per_page p si in
  let max_bpp = ref 1 in
  for si = 0 to nsizes - 1 do
    if bpp si > !max_bpp then max_bpp := bpp si
  done;
  let limit = (Kma.Layout.total_data_pages ly * !max_bpp) + 8 in

  (* (3) Boundary-tag tiling of every vmblk's page descriptors.  Also
     collects the split pages per class and the page totals that the
     conservation check needs. *)
  let nvmblks = Kma.Vmblk.nvmblks_oracle ctx in
  let split_pages = Array.make nsizes [] in
  let total_split = ref 0 in
  let span_pages = ref 0 in
  let tiled_free = Hashtbl.create 16 in
  for v = 0 to nvmblks - 1 do
    let vb = Kma.Layout.vmblk_addr ly ~index:v in
    let dp = ref 0 in
    while !dp < ly.Kma.Layout.data_pages do
      let pd = Kma.Layout.pd_addr ly ~vmblk:vb ~data_page:!dp in
      let st = Memory.get mem (pd + Kma.Vmblk.pd_state) in
      let adv =
        if st = Kma.Vmblk.st_free_head then begin
          let len = Memory.get mem (pd + Kma.Vmblk.pd_arg) in
          if len < 1 || !dp + len > ly.Kma.Layout.data_pages then begin
            add Span_state "free span at pd %d has impossible length %d" pd
              len;
            1
          end
          else begin
            for i = 1 to len - 2 do
              let ipd = pd + (i * pdw) in
              let ist = Memory.get mem (ipd + Kma.Vmblk.pd_state) in
              if ist <> Kma.Vmblk.st_free_mid then
                add Span_state
                  "interior pd %d of free span %d (len %d) in state %d, \
                   want free-mid"
                  ipd pd len ist
            done;
            if len > 1 then begin
              let tpd = pd + ((len - 1) * pdw) in
              if Memory.get mem (tpd + Kma.Vmblk.pd_state)
                 <> Kma.Vmblk.st_free_tail
              then
                add Span_state
                  "tail pd %d of free span %d (len %d) in state %d, want \
                   free-tail"
                  tpd pd len
                  (Memory.get mem (tpd + Kma.Vmblk.pd_state))
              else if Memory.get mem (tpd + Kma.Vmblk.pd_arg) <> pd then
                add Span_state
                  "tail pd %d back-pointer %d does not name its head %d" tpd
                  (Memory.get mem (tpd + Kma.Vmblk.pd_arg))
                  pd
            end;
            Hashtbl.replace tiled_free pd len;
            len
          end
        end
        else if st = Kma.Vmblk.st_split then begin
          let si = Memory.get mem (pd + Kma.Vmblk.pd_sizeidx) in
          if si < 0 || si >= nsizes then
            add Span_state "split pd %d carries bad size class %d" pd si
          else begin
            split_pages.(si) <- pd :: split_pages.(si);
            incr total_split
          end;
          1
        end
        else if st = Kma.Vmblk.st_span_alloc then begin
          let n = Memory.get mem (pd + Kma.Vmblk.pd_arg) in
          if n < 1 || !dp + n > ly.Kma.Layout.data_pages then begin
            add Span_state "allocated span at pd %d has impossible length %d"
              pd n;
            1
          end
          else begin
            for i = 1 to n - 1 do
              let ipd = pd + (i * pdw) in
              let ist = Memory.get mem (ipd + Kma.Vmblk.pd_state) in
              if ist <> Kma.Vmblk.st_span_mid then
                add Span_state
                  "interior pd %d of allocated span %d (len %d) in state \
                   %d, want span-mid"
                  ipd pd n ist
            done;
            span_pages := !span_pages + n;
            n
          end
        end
        else begin
          add Span_state
            "pd %d at a span boundary reads orphaned state %d (%s)" pd st
            (if st = Kma.Vmblk.st_free_mid then "free-mid"
             else if st = Kma.Vmblk.st_free_tail then "free-tail"
             else if st = Kma.Vmblk.st_span_mid then "span-mid"
             else "unknown");
          1
        end
      in
      dp := !dp + adv
    done
  done;
  (* The free spans the tiling found must be exactly the spans on the
     free-span list, with matching recorded lengths. *)
  guard Span_state "free-span list"
    (fun () ->
      List.iter
        (fun (pd, len) ->
          match Hashtbl.find_opt tiled_free pd with
          | None ->
              add Span_state
                "span-list entry pd %d (len %d) is not a free-span boundary"
                pd len
          | Some l ->
              if l <> len then
                add Span_state
                  "span-list entry pd %d records len %d but tiles as %d" pd
                  len l;
              Hashtbl.remove tiled_free pd)
        (Kma.Vmblk.free_spans_oracle ctx))
    ~fallback:();
  Hashtbl.iter
    (fun pd len ->
      add Span_state "free span pd %d (len %d) missing from the span list"
        pd len)
    tiled_free;

  (* Double-insertion sweep state, shared by every freelist walk below:
     each free block may appear on exactly one list, and must be backed
     by a split page of its own class (checked through the dope
     vector — the same lookup [Vmblk.pd_of_block] performs charged). *)
  let seen : (int, string) Hashtbl.t = Hashtbl.create 1024 in
  let arena_end =
    ly.Kma.Layout.vmblk_base
    + (ly.Kma.Layout.arena_vmblks * ly.Kma.Layout.vmblk_words)
  in
  let note_block ~what ~si a =
    (match Hashtbl.find_opt seen a with
    | Some prior ->
        add Dup_block "block %d is on both %s and %s" a prior what
    | None -> Hashtbl.add seen a what);
    if a < ly.Kma.Layout.vmblk_base || a >= arena_end then
      add Conservation "block %d on %s lies outside the vmblk arena" a what
    else begin
      let vb = Memory.get mem (Kma.Layout.dope_entry ly a) in
      if vb = 0 then
        add Conservation "block %d on %s has no dope-vector entry" a what
      else begin
        let dpg =
          ((a - vb) lsr ly.Kma.Layout.page_shift) - ly.Kma.Layout.hdr_pages
        in
        if dpg < 0 || dpg >= ly.Kma.Layout.data_pages then
          add Conservation "block %d on %s falls in vmblk header pages" a
            what
        else begin
          let pd = Kma.Layout.pd_addr ly ~vmblk:vb ~data_page:dpg in
          if Memory.get mem (pd + Kma.Vmblk.pd_state) <> Kma.Vmblk.st_split
          then
            add Conservation
              "block %d on %s sits in a page whose descriptor is not split \
               (state %d)"
              a what
              (Memory.get mem (pd + Kma.Vmblk.pd_state))
          else if Memory.get mem (pd + Kma.Vmblk.pd_sizeidx) <> si then
            add Conservation
              "block %d on %s (class %d) sits in a class-%d page" a what si
              (Memory.get mem (pd + Kma.Vmblk.pd_sizeidx))
        end
      end
    end
  in
  let free_counts = Array.make nsizes 0 in

  (* (2) Coalesce-to-page layer: pd_nfree vs the intra-page chain, radix
     bucket membership, and the minhint lower bound. *)
  let bucket_of : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  for si = 0 to nsizes - 1 do
    let buckets =
      guard Page_nfree
        (Printf.sprintf "class %d radix buckets" si)
        (fun () -> Kma.Pagepool.bucket_pages_oracle ctx ~si)
        ~fallback:[]
    in
    List.iter
      (fun (b, pages) ->
        List.iter
          (fun pd ->
            match Hashtbl.find_opt bucket_of pd with
            | Some _ -> add Page_nfree "pd %d sits on two radix buckets" pd
            | None -> Hashtbl.add bucket_of pd (si, b))
          pages)
      buckets;
    let hint = Kma.Pagepool.minhint_oracle ctx ~si in
    if hint < 1 || hint > bpp si + 1 then
      add Minhint "class %d minhint %d outside [1, %d]" si hint (bpp si + 1)
    else
      List.iter
        (fun (b, pages) ->
          if pages <> [] && hint > b then
            add Minhint
              "class %d minhint %d is above non-empty bucket %d (not a \
               lower bound)"
              si hint b)
        buckets
  done;
  for si = 0 to nsizes - 1 do
    List.iter
      (fun pd ->
        let page = Kma.Layout.page_of_pd ly ~pd in
        let nfree = Memory.get mem (pd + Kma.Vmblk.pd_nfree) in
        let words = Kma.Params.size_words p si in
        let what = Printf.sprintf "page %d intra-page list" page in
        let len =
          walk_chain mem ~limit (Memory.get mem (pd + Kma.Vmblk.pd_blkhead))
            (fun a ->
              note_block ~what ~si a;
              if a < page || a >= page + ly.Kma.Layout.page_words then
                add Page_nfree
                  "block %d on page %d's intra-page list is outside the \
                   page"
                  a page
              else if (a - page) mod words <> 0 then
                add Page_nfree
                  "block %d on page %d's intra-page list is misaligned for \
                   class %d"
                  a page si)
        in
        (match len with
        | None ->
            add Page_nfree "page %d intra-page list does not terminate" page
        | Some n ->
            free_counts.(si) <- free_counts.(si) + n;
            if n <> nfree then
              add Page_nfree
                "page %d pd_nfree says %d but the intra-page list holds %d"
                page nfree n);
        if nfree < 0 || nfree >= bpp si then
          add Page_nfree
            "page %d pd_nfree %d outside [0, %d) (full pages return to the \
             vmblk layer immediately)"
            page nfree (bpp si);
        match Hashtbl.find_opt bucket_of pd with
        | Some (bsi, b) ->
            if bsi <> si then
              add Page_nfree "page %d (class %d) sits on class %d's buckets"
                page si bsi
            else if b <> nfree then
              add Page_nfree
                "page %d holds %d free blocks but sits on bucket %d" page
                nfree b;
            Hashtbl.remove bucket_of pd
        | None ->
            if nfree > 0 then
              add Page_nfree
                "page %d holds %d free blocks but is on no radix bucket"
                page nfree)
      split_pages.(si)
  done;
  Hashtbl.iter
    (fun pd (si, b) ->
      add Page_nfree
        "pd %d on class %d bucket %d does not describe a split page" pd si b)
    bucket_of;

  (* (1) per-CPU caches: count words vs chain lengths, plus the
     target-discipline bounds. *)
  for cpu = 0 to ncpus - 1 do
    for si = 0 to nsizes - 1 do
      let (mh, mc), (ah, ac), tgt = Kma.Percpu.cache_oracle ctx ~cpu ~si in
      let deflt = p.Kma.Params.targets.(si) in
      let half name head cword =
        let what = Printf.sprintf "cpu%d %s[%d]" cpu name si in
        match
          walk_chain mem ~limit head (fun a -> note_block ~what ~si a)
        with
        | None ->
            add Percpu_count "%s chain does not terminate" what;
            0
        | Some n ->
            if n <> cword then
              add Percpu_count "%s count word says %d but the chain holds %d"
                what cword n;
            if n > deflt then
              add Percpu_count "%s holds %d blocks, above the target bound %d"
                what n deflt;
            n
      in
      let nm = half "main" mh mc in
      let na = half "aux" ah ac in
      free_counts.(si) <- free_counts.(si) + nm + na;
      if tgt <> deflt then
        add Percpu_count
          "cpu%d class %d target word %d differs from the boot target %d" cpu
          si tgt deflt;
      if ac <> 0 && ac <> tgt then
        add Percpu_count
          "cpu%d class %d aux holds %d blocks, want 0 or a full target list \
           of %d"
          cpu si ac tgt
    done
  done;

  (* (1) global layer: every gblfree count word is the true chain
     length, the list-of-lists never carries a non-target list, and the
     bucket count is honest. *)
  for si = 0 to nsizes - 1 do
    let deflt = p.Kma.Params.targets.(si) in
    guard Gbl_count
      (Printf.sprintf "class %d gblfree" si)
      (fun () ->
        let lists = Kma.Global.lists_oracle ctx ~si in
        let nl = Kma.Global.nlists_oracle ctx ~si in
        if List.length lists <> nl then
          add Gbl_count
            "class %d nlists word says %d but gblfree carries %d lists" si
            nl (List.length lists);
        List.iteri
          (fun i (head, cnt) ->
            let what = Printf.sprintf "gblfree[%d] list %d" si i in
            match
              walk_chain mem ~limit head (fun a -> note_block ~what ~si a)
            with
            | None -> add Gbl_count "%s chain does not terminate" what
            | Some n ->
                free_counts.(si) <- free_counts.(si) + n;
                if n <> cnt then
                  add Gbl_count
                    "%s count word says %d but the chain holds %d" what cnt
                    n;
                if cnt <> deflt then
                  add Gbl_count
                    "%s carries %d blocks, not a full target list of %d"
                    what cnt deflt)
          lists)
      ~fallback:();
    List.iteri
      (fun node (bh, bc) ->
        let what =
          if node = 0 then Printf.sprintf "gbl bucket[%d]" si
          else Printf.sprintf "gbl bucket[n%d][%d]" node si
        in
        match walk_chain mem ~limit bh (fun a -> note_block ~what ~si a) with
        | None -> add Gbl_count "%s chain does not terminate" what
        | Some n ->
            free_counts.(si) <- free_counts.(si) + n;
            if n <> bc then
              add Gbl_count "%s count word says %d but the chain holds %d"
                what bc n)
      (Kma.Global.buckets_oracle ctx ~si)
  done;

  (* (4) conservation: free + outstanding = split capacity per class,
     and every granted physical page is accounted to exactly one split
     page or allocated span. *)
  for si = 0 to nsizes - 1 do
    let capacity = List.length split_pages.(si) * bpp si in
    match live with
    | Some lv ->
        if free_counts.(si) + lv.(si) <> capacity then
          add Conservation
            "class %d: free %d + live %d <> capacity %d (%d split pages x \
             %d blocks)"
            si free_counts.(si) lv.(si) capacity
            (List.length split_pages.(si))
            (bpp si)
    | None ->
        if free_counts.(si) > capacity then
          add Conservation "class %d: free %d exceeds split capacity %d" si
            free_counts.(si) capacity
  done;
  let granted = Vmsys.granted ctx.Kma.Ctx.vmsys in
  if granted <> !total_split + !span_pages then
    add Conservation
      "VM system has %d pages granted but descriptors account for %d \
       (split %d + span-allocated %d)"
      granted
      (!total_split + !span_pages)
      !total_split !span_pages;
  List.rev !viols

(* --- lifecycle (lockcheck's enable/on/report idiom) --- *)

exception Violation of string

type mode = Paranoid | Sweep of int

type state = {
  abort : bool;
  mode_v : mode;
  mutable checks : int;
  mutable nviol : int;
  mutable viols : violation list; (* newest first *)
}

(* The checker state is domain-local so that lib/parallel can run
   checker-enabled cells in worker domains without sharing mutable
   state: each domain sees its own slot.  [armed] is the cross-domain
   face of [enable]: it publishes the (abort, mode) configuration so
   {!shard} can install an identically-configured fresh state inside
   whichever domain runs the cell. *)
let state_key : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let armed : (bool * mode) option Atomic.t = Atomic.make None

let enable ?(abort = true) ?(mode = Paranoid) () =
  (match mode with
  | Sweep n when n < 1 -> invalid_arg "Heapcheck.enable: sweep period < 1"
  | _ -> ());
  Atomic.set armed (Some (abort, mode));
  Domain.DLS.get state_key
  := Some { abort; mode_v = mode; checks = 0; nviol = 0; viols = [] }

let disable () =
  Atomic.set armed None;
  Domain.DLS.get state_key := None

let state () = !(Domain.DLS.get state_key)
let on () = match state () with Some _ -> true | None -> false
let mode () = match state () with Some st -> Some st.mode_v | None -> None

let note (v : violation) =
  match state () with
  | None -> ()
  | Some st ->
      st.nviol <- st.nviol + 1;
      st.viols <- v :: st.viols;
      (* Host-side accessor only: recording a violation must not add a
         yield point (the flight recorder's zero-perturbation rule). *)
      (match Machine.running () with
      | Some (cpu, time) ->
          Flightrec.Recorder.emit ~cpu ~time
            (Flightrec.Event.Heapcheck_violation { rule = rule_name v.rule })
      | None -> ());
      if st.abort then raise (Violation (rule_name v.rule ^ ": " ^ v.detail))

let checkpoint ?live k =
  match state () with
  | None -> ()
  | Some st ->
      st.checks <- st.checks + 1;
      List.iter note (check ?live k)

(* --- sharding: checker-enabled cells in worker domains --- *)

type harvest = { hchecks : int; hviols : violation list (* oldest first *) }

let shard f =
  match Atomic.get armed with
  | None -> (f (), None)
  | Some (abort, mode) ->
      (* Install a fresh, identically-configured state for this cell in
         the current domain (saving whatever was there: on the calling
         domain that is the [enable]d state itself).  Both the jobs:1
         and the jobs:N path run THIS code, so a cell's checkpoints and
         violations are gathered identically either way — determinism
         of the merged report is by construction, not by luck. *)
      let slot = Domain.DLS.get state_key in
      let saved = !slot in
      slot :=
        Some { abort; mode_v = mode; checks = 0; nviol = 0; viols = [] };
      let finish () =
        let st =
          match !slot with Some st -> st | None -> assert false
        in
        slot := saved;
        { hchecks = st.checks; hviols = List.rev st.viols }
      in
      (match f () with
      | r -> (r, Some (finish ()))
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (finish ());
          Printexc.raise_with_backtrace e bt)

let absorb = function
  | None -> ()
  | Some h -> (
      match state () with
      | None -> ()
      | Some st ->
          st.checks <- st.checks + h.hchecks;
          List.iter
            (fun v ->
              st.nviol <- st.nviol + 1;
              st.viols <- v :: st.viols)
            h.hviols)

let violations () =
  match state () with
  | None -> []
  | Some st -> List.rev_map (fun v -> (v.rule, v.detail)) st.viols

let violation_count () = match state () with None -> 0 | Some st -> st.nviol
let check_count () = match state () with None -> 0 | Some st -> st.checks

let report () =
  match state () with
  | None -> "heapcheck: disabled\n"
  | Some st ->
      let b = Buffer.create 256 in
      Printf.bprintf b "heapcheck: %d checkpoint(s), %d violation(s)\n"
        st.checks st.nviol;
      let by_rule = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let n =
            match Hashtbl.find_opt by_rule v.rule with
            | Some n -> n
            | None -> 0
          in
          Hashtbl.replace by_rule v.rule (n + 1))
        st.viols;
      List.iter
        (fun r ->
          match Hashtbl.find_opt by_rule r with
          | Some n -> Printf.bprintf b "  %-12s %d\n" (rule_name r) n
          | None -> ())
        [
          Gbl_count;
          Percpu_count;
          Page_nfree;
          Minhint;
          Span_state;
          Conservation;
          Dup_block;
        ];
      List.iter
        (fun v ->
          Printf.bprintf b "  [%s] %s\n" (rule_name v.rule) v.detail)
        (List.rev st.viols);
      Buffer.contents b

(* --- fragmentation sampling --- *)

(* The same page-descriptor walk the span-state rule performs, reduced
   to the counts a fragmentation curve needs.  Defensive like the
   checker proper: an impossible span length degrades to a one-page
   step instead of raising, so sampling a corrupt heap still returns. *)

type frag = {
  granted_pages : int;
  split_pages : int;
  span_pages : int;
  free_span_pages : int;
  free_blocks : int;
  free_bytes : int;
}

let fragmentation (k : Kma.Kmem.t) =
  let ctx : Kma.Ctx.t = k in
  let mem = Kma.Ctx.memory ctx in
  let ly = ctx.Kma.Ctx.layout in
  let p = Kma.Ctx.params ctx in
  let nsizes = ly.Kma.Layout.nsizes in
  let ncpus = ly.Kma.Layout.ncpus in
  let split = ref 0 and span = ref 0 and free_span = ref 0 in
  for v = 0 to Kma.Vmblk.nvmblks_oracle ctx - 1 do
    let vb = Kma.Layout.vmblk_addr ly ~index:v in
    let dp = ref 0 in
    while !dp < ly.Kma.Layout.data_pages do
      let pd = Kma.Layout.pd_addr ly ~vmblk:vb ~data_page:!dp in
      let st = Memory.get mem (pd + Kma.Vmblk.pd_state) in
      let adv =
        if st = Kma.Vmblk.st_free_head then begin
          let len = Memory.get mem (pd + Kma.Vmblk.pd_arg) in
          let len =
            if len < 1 || !dp + len > ly.Kma.Layout.data_pages then 1 else len
          in
          free_span := !free_span + len;
          len
        end
        else if st = Kma.Vmblk.st_split then begin
          incr split;
          1
        end
        else if st = Kma.Vmblk.st_span_alloc then begin
          let n = Memory.get mem (pd + Kma.Vmblk.pd_arg) in
          let n =
            if n < 1 || !dp + n > ly.Kma.Layout.data_pages then 1 else n
          in
          span := !span + n;
          n
        end
        else 1
      in
      dp := !dp + adv
    done
  done;
  let free_blocks = ref 0 and free_bytes = ref 0 in
  for si = 0 to nsizes - 1 do
    let n = ref 0 in
    for cpu = 0 to ncpus - 1 do
      n := !n + Kma.Percpu.cached_blocks_oracle ctx ~cpu ~si
    done;
    n := !n + Kma.Global.total_blocks_oracle ctx ~si;
    n := !n + Kma.Pagepool.free_blocks_oracle ctx ~si;
    free_blocks := !free_blocks + !n;
    free_bytes := !free_bytes + (!n * p.Kma.Params.sizes_bytes.(si))
  done;
  {
    granted_pages = Kma.Kmem.granted_pages_oracle k;
    split_pages = !split;
    span_pages = !span;
    free_span_pages = !free_span;
    free_blocks = !free_blocks;
    free_bytes = !free_bytes;
  }
