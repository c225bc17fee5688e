module Bus = Devil_runtime.Bus

let log_src =
  Logs.Src.create "hwsim.bus"
    ~doc:"Simulated bus traffic (Debug level traces every transfer)"

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable block_ops : int;
  mutable block_items : int;
}

type region = { base : int; size : int; model : Model.t }

(* Regions in an array, scanned by a closure-free loop: a transfer's
   lookup allocates nothing. *)
type t = { mutable regions : region array; stats : stats }

let create () =
  {
    regions = [||];
    stats = { reads = 0; writes = 0; block_ops = 0; block_items = 0 };
  }

let overlaps a b =
  a.base < b.base + b.size && b.base < a.base + a.size

let attach t ~base ~size model =
  let region = { base; size; model } in
  Array.iter
    (fun existing ->
      if overlaps existing region then
        invalid_arg
          (Printf.sprintf "Io_space.attach: %s overlaps %s" model.Model.name
             existing.model.Model.name))
    t.regions;
  t.regions <- Array.append t.regions [| region |]

let rec find_from regions addr i =
  if i = Array.length regions then
    raise
      (Devil_runtime.Instance.Device_error
         (Printf.sprintf "bus fault: no device at address %#x" addr))
  else
    let r = regions.(i) in
    if addr >= r.base && addr < r.base + r.size then r
    else find_from regions addr (i + 1)

let find t addr = find_from t.regions addr 0

(* Logs builds nothing for a source below Debug, but the formatting
   closure handed to it is allocated before it can look; asking first
   keeps the common (silent) path allocation-free. *)
let tracing () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

let log_read r ~width ~addr v =
  Logs.debug ~src:log_src (fun m ->
      m "%s: R%d [%#x] -> %#x" r.model.Model.name width addr v)

let log_write r ~width ~addr ~value =
  Logs.debug ~src:log_src (fun m ->
      m "%s: W%d [%#x] <- %#x" r.model.Model.name width addr value)

let dispatch_read t ~width ~addr =
  let r = find t addr in
  let v = r.model.Model.read ~width ~offset:(addr - r.base) in
  if tracing () then log_read r ~width ~addr v;
  v

let dispatch_write t ~width ~addr ~value =
  let r = find t addr in
  if tracing () then log_write r ~width ~addr ~value;
  r.model.Model.write ~width ~offset:(addr - r.base) ~value

(* A block repeats one address, so its region is resolved once and the
   model called directly per element. An empty block resolves nothing:
   it touches no model, even at an unmapped address. *)
let read_block t ~width ~addr ~into =
  let n = Array.length into in
  if n > 0 then begin
    let r = find t addr in
    let read = r.model.Model.read and offset = addr - r.base in
    for i = 0 to n - 1 do
      let v = read ~width ~offset in
      into.(i) <- v;
      if tracing () then log_read r ~width ~addr v
    done
  end

let write_block t ~width ~addr ~from =
  let n = Array.length from in
  if n > 0 then begin
    let r = find t addr in
    let write = r.model.Model.write and offset = addr - r.base in
    for i = 0 to n - 1 do
      let value = from.(i) in
      if tracing () then log_write r ~width ~addr ~value;
      write ~width ~offset ~value
    done
  end

let bus t : Bus.t =
  {
    Bus.read =
      (fun ~width ~addr ->
        t.stats.reads <- t.stats.reads + 1;
        dispatch_read t ~width ~addr);
    write =
      (fun ~width ~addr ~value ->
        t.stats.writes <- t.stats.writes + 1;
        dispatch_write t ~width ~addr ~value);
    read_block =
      (fun ~width ~addr ~into ->
        t.stats.block_ops <- t.stats.block_ops + 1;
        t.stats.block_items <- t.stats.block_items + Array.length into;
        read_block t ~width ~addr ~into);
    write_block =
      (fun ~width ~addr ~from ->
        t.stats.block_ops <- t.stats.block_ops + 1;
        t.stats.block_items <- t.stats.block_items + Array.length from;
        write_block t ~width ~addr ~from);
  }

let stats t = t.stats

let reset_stats t =
  t.stats.reads <- 0;
  t.stats.writes <- 0;
  t.stats.block_ops <- 0;
  t.stats.block_items <- 0

let io_ops t = t.stats.reads + t.stats.writes + t.stats.block_items
let single_ops t = t.stats.reads + t.stats.writes

let pp_stats fmt t =
  Format.fprintf fmt
    "reads=%d writes=%d block_ops=%d block_items=%d (io_ops=%d)" t.stats.reads
    t.stats.writes t.stats.block_ops t.stats.block_items (io_ops t)
