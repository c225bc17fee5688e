(** The simulated I/O / memory-mapped address space.

    Devices are attached at base addresses; the exported {!Bus.t}
    dispatches accesses to the owning device and accounts for their
    cost. Single transfers and block-transfer elements are counted
    separately: the performance model charges a per-iteration CPU
    overhead to driver-level loops of single transfers but not to
    [rep]-style block transfers (paper §2.2, §4.3).

    An access to an address no device claims raises
    {!Devil_runtime.Instance.Device_error}, a permanent device fault
    that {!Devil_runtime.Policy} does not retry — not
    {!Devil_runtime.Bus.Bus_fault}, the transient "no device can
    answer" error the policy does retry. A block transfer raises it
    before its first element; an empty block resolves no address and
    touches no device. Either way the transfer has been counted in
    {!stats}.

    Dispatch allocates nothing: the region lookup is a closure-free
    scan, a block resolves its region once and calls the device model
    directly per element, and the ["hwsim.bus"] log line (one per
    single transfer or block element) is built only when that Logs
    source is at [Debug]. *)

module Bus = Devil_runtime.Bus

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable block_ops : int;  (** block instructions issued *)
  mutable block_items : int;  (** elements moved by block transfers *)
}

type t

val create : unit -> t

val attach : t -> base:int -> size:int -> Model.t -> unit
(** Claims [base .. base+size-1] for a device. Overlapping claims raise
    [Invalid_argument]. *)

val bus : t -> Bus.t

val stats : t -> stats
val reset_stats : t -> unit

val io_ops : t -> int
(** Total I/O operations in the paper's counting: single transfers plus
    block-transfer elements. *)

val single_ops : t -> int
val pp_stats : Format.formatter -> t -> unit
