let mem_size = 0x0200_0000 (* 32 MB *)

let cisc_code_base = 0x0001_0000
let risc_code_base = 0x0011_0000
let code_region_size = 0x0010_0000 (* 1 MB each *)

let data_base = 0x0030_0000
let data_size = 0x0010_0000

let heap_base = 0x0040_0000
let heap_limit = 0x00C0_0000

let stack_top = 0x00FF_FFF0

let cisc_cache_base = 0x0100_0000
let risc_cache_base = 0x0180_0000
let cache_region_size = 0x0080_0000 (* 8 MB regions; caches configured smaller *)

let exit_sentinel = 0x0000_EEEE

let code_base = function Hipstr_isa.Desc.Cisc -> cisc_code_base | Risc -> risc_code_base
let cache_base = function Hipstr_isa.Desc.Cisc -> cisc_cache_base | Risc -> risc_cache_base

let in_cache_region a =
  (a >= cisc_cache_base && a < cisc_cache_base + cache_region_size)
  || (a >= risc_cache_base && a < risc_cache_base + cache_region_size)
