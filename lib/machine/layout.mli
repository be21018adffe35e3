(** The simulated process address space.

    One flat 32 MB space shared by both cores (the fat-binary process
    model: two code sections, a common ISA-agnostic data section, one
    stack and heap, and one code-cache region per ISA's PSR virtual
    machine). *)

val mem_size : int

val cisc_code_base : int
val risc_code_base : int
val code_region_size : int

val data_base : int
val data_size : int

val heap_base : int
val heap_limit : int

val stack_top : int
(** Initial stack pointer (stack grows down). *)

val cisc_cache_base : int
val risc_cache_base : int
val cache_region_size : int
(** Maximum code-cache region per ISA; the PSR VM may configure a
    smaller effective cache. *)

val exit_sentinel : int
(** Pseudo return address pushed below [main]; control reaching it
    means the program returned from [main]. Lies outside every mapped
    region. *)

val code_base : Hipstr_isa.Desc.which -> int
val cache_base : Hipstr_isa.Desc.which -> int

val in_cache_region : int -> bool
(** Whether an address falls in either ISA's code-cache region (the
    software-fault-isolation check the PSR VM applies to indirect
    branch targets). *)
