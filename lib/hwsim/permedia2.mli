(** Behavioural model of the 3Dlabs Permedia2 2D engine subset.

    The controller decodes memory-mapped register writes into an input
    FIFO (capacity {!fifo_capacity}); a render command makes the engine
    busy for a time proportional to the touched pixels and their depth.
    Simulated time advances by one tick per bus access — the driver's
    FIFO wait loops (one read per iteration, paper §4.3) therefore
    both measure and provide the time the engine needs to drain.

    MMIO offsets: 0 FIFO space (r), 1 block color (w), 2 rectangle
    position (w), 3 rectangle size (w), 4 copy offset (w), 5 render
    command (w), 6 pixel depth (w), 7 engine status (r). A second
    port exposes a linear framebuffer aperture for software rendering.
    The framebuffer allocates each scanline on its first non-zero
    write; a pixel never written reads 0.

    Writes issued while the FIFO is full are dropped and counted in
    {!overflows} — a correct driver never lets that happen. *)

type t

val fifo_capacity : int  (** 32 *)

val create : ?width:int -> ?height:int -> unit -> t
val mmio_model : t -> Model.t
val fb_model : t -> Model.t

val pixel : t -> x:int -> y:int -> int
(** Framebuffer inspection for tests. *)

val set_pixel : t -> x:int -> y:int -> int -> unit
val overflows : t -> int
val ticks : t -> int
(** Simulated time elapsed, in 30 ns units (writes cost 1, reads 10). *)

val busy_ticks_remaining : t -> int
val depth : t -> int
