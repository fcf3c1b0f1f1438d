type per_size = {
  mutable allocs : int;
  mutable frees : int;
  mutable alloc_aux_refills : int;
  mutable alloc_misses : int;
  mutable free_misses : int;
  mutable gbl_gets : int;
  mutable gbl_puts : int;
  mutable gbl_get_misses : int;
  mutable gbl_put_misses : int;
  mutable page_block_gets : int;
  mutable page_block_puts : int;
  mutable pages_grabbed : int;
  mutable pages_returned : int;
}

type t = {
  sizes : per_size array;
  mutable large_allocs : int;
  mutable large_frees : int;
  mutable reaps : int;
  mutable reap_pages : int;
  mutable pressure_retries : int;
  mutable pressure_failures : int;
}

let fresh () =
  {
    allocs = 0;
    frees = 0;
    alloc_aux_refills = 0;
    alloc_misses = 0;
    free_misses = 0;
    gbl_gets = 0;
    gbl_puts = 0;
    gbl_get_misses = 0;
    gbl_put_misses = 0;
    page_block_gets = 0;
    page_block_puts = 0;
    pages_grabbed = 0;
    pages_returned = 0;
  }

let create ~nsizes =
  {
    sizes = Array.init nsizes (fun _ -> fresh ());
    large_allocs = 0;
    large_frees = 0;
    reaps = 0;
    reap_pages = 0;
    pressure_retries = 0;
    pressure_failures = 0;
  }

let size t si = t.sizes.(si)

let reset t =
  t.large_allocs <- 0;
  t.large_frees <- 0;
  t.reaps <- 0;
  t.reap_pages <- 0;
  t.pressure_retries <- 0;
  t.pressure_failures <- 0;
  Array.iteri (fun i _ -> t.sizes.(i) <- fresh ()) t.sizes

let ratio num den =
  if den = 0 then Float.nan else float_of_int num /. float_of_int den

let percpu_alloc_miss_rate t ~si =
  let s = t.sizes.(si) in
  ratio s.alloc_misses s.allocs

let percpu_free_miss_rate t ~si =
  let s = t.sizes.(si) in
  ratio s.free_misses s.frees

let global_alloc_miss_rate t ~si =
  let s = t.sizes.(si) in
  ratio s.gbl_get_misses s.gbl_gets

let global_free_miss_rate t ~si =
  let s = t.sizes.(si) in
  ratio s.gbl_put_misses s.gbl_puts

let combined_alloc_miss_rate t ~si =
  let s = t.sizes.(si) in
  ratio s.gbl_get_misses s.allocs

let combined_free_miss_rate t ~si =
  let s = t.sizes.(si) in
  ratio s.gbl_put_misses s.frees

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun si s ->
      if s.allocs + s.frees > 0 then
        Format.fprintf ppf
          "size[%d]: allocs=%d frees=%d pcpu-miss=%d/%d gbl-miss=%d/%d \
           page-blocks=%d/%d pages=%d/%d@,"
          si s.allocs s.frees s.alloc_misses s.free_misses s.gbl_get_misses
          s.gbl_put_misses s.page_block_gets s.page_block_puts s.pages_grabbed
          s.pages_returned)
    t.sizes;
  if t.large_allocs + t.large_frees > 0 then
    Format.fprintf ppf "large: allocs=%d frees=%d@," t.large_allocs
      t.large_frees;
  if t.reaps + t.pressure_retries + t.pressure_failures > 0 then
    Format.fprintf ppf
      "pressure: reaps=%d pages-reclaimed=%d retries=%d failures=%d@,"
      t.reaps t.reap_pages t.pressure_retries t.pressure_failures;
  Format.fprintf ppf "@]"
