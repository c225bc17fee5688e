(* The repository benchmark: one workload per process, closed loop, one
   client, single-threaded.

     bench.exe --workload toolchain|driver_io|fault_campaign
               --seed N --seconds N --trace 0|1

   Run it from the repository root: toolchain reads its references from
   test/golden.

   Each run performs a fixed number of ops (the workload's nominal rate
   times --seconds), so every count it reports repeats exactly for a
   given seed. Every op is checked against a reference that does not go
   through the code under test. The last line of stdout is the result
   object; human-readable detail goes to stderr.

   --trace 0 reports the end-to-end metrics. --trace 1 reports the
   per-layer metrics: it alternates the untraced ops with traced ops on
   the same inputs, which time calls into each layer's public functions
   from here. Nothing inside lib/ is instrumented. See README.md for the
   metric definitions. *)

module Machine = Drivers.Machine
module Instance = Devil_runtime.Instance
module Policy = Devil_runtime.Policy
module Bus = Devil_runtime.Bus
module Sched = Devil_runtime.Sched
module Value = Devil_ir.Value
module Specs = Devil_specs.Specs
module Campaign = Faultcamp.Campaign

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* {1 Results} *)

let metrics : (string * float * string) list ref = ref []
let emit name unit v = metrics := (name, v, unit) :: !metrics
let attempted = ref 0
let failed = ref 0
let failure_notes = ref []

exception Check_failed of string

let expect what ok = if not ok then raise (Check_failed what)

(* A check on the whole run rather than on one op. *)
let run_ok = ref true

let expect_run what ok =
  if not ok then begin
    run_ok := false;
    failure_notes := what :: !failure_notes
  end

(* Runs one op. Anything it raises, a failed check included, counts the
   op as failed; the run goes on so the failure count is complete. *)
let run_op f =
  incr attempted;
  try f () with e ->
    incr failed;
    if List.length !failure_notes < 5 then
      failure_notes := Printexc.to_string e :: !failure_notes

(* Linear-interpolation percentile of unsorted samples. *)
let percentile samples p =
  let s = Array.copy samples in
  Array.sort compare s;
  let n = Array.length s in
  let r = p *. float_of_int (n - 1) in
  let lo = int_of_float r in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((r -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median samples = percentile samples 0.5
let sum = Array.fold_left ( +. ) 0.0
let us_of_ns ns = float_of_int ns /. 1000.0

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* {2 The reference kernel}

   A fixed piece of work that calls no code of the repository: it
   writes 16 Ki consecutive words of a 2 MiB ring, starting where the
   previous call stopped. That is the memory traffic of OCaml
   allocation, which bumps through a minor heap of the same size (the
   default 256 Ki words). The ring lives outside the OCaml heap and
   holds no pointers, so the kernel's time does not depend on the
   program's heap, and [peak_heap_mb] does not count the ring. Timed
   between ops, it measures how fast the host runs at that moment, apart
   from the program. *)

let reference_ring : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 18)

let reference_cursor = ref 0

let reference_kernel () =
  let c = !reference_cursor and mask = Bigarray.Array1.dim reference_ring - 1 in
  (* the mask keeps every index inside the ring *)
  for i = 0 to 16383 do
    Bigarray.Array1.unsafe_set reference_ring ((c + i) land mask) (i lxor c)
  done;
  reference_cursor := (c + 16384) land mask

(* [reps] timed runs of the kernel, us each. An untimed run goes first:
   it writes back what the op before it left dirty in the cache, so the
   timed runs see the host rather than the op's memory footprint. *)
let reference_batch reps =
  reference_kernel ();
  Array.init reps (fun _ ->
      let t0 = now_ns () in
      reference_kernel ();
      us_of_ns (now_ns () - t0))

(* [setup_s] is the median time of several complete set-ups. The
   first builds the state the timed loop runs on; the others run at
   evenly spaced points of the loop and are discarded, so each set-up
   can be corrected for the host's slowdown like the op next to it. *)
let setup_repeats = 12

let timed_setup f =
  let t0 = now_ns () in
  let state = f () in
  (state, float_of_int (now_ns () - t0) /. 1e9)

(* A probe wraps one call into a layer; [k] numbers the call site. *)
type probe = { probe : 'a. int -> (unit -> 'a) -> 'a }

let no_probe = { probe = (fun _ f -> f ()) }

(* The machine's 8259A is the master, so its spec is elaborated so. *)
let spec_config name =
  if name = "pic8259" then [ ("is_master", Value.Bool true) ] else []

(* What a process pays before its first machine: the front end over the
   whole spec library, which the spec accessors memoize on first use. *)
let compile_library () =
  List.iter
    (fun (name, src) -> ignore (Specs.compile_exn ~config:(spec_config name) ~name src))
    Specs.all

(* The timed loop: an untimed warm-up, a compaction, then [ops] ops.
   [op i] returns the nanoseconds of its own timed part, so checks and
   back-door set-up stay outside the clock; [i] < 0 marks a warm-up op.
   [setup] is re-run between ops as described at [setup_repeats].
   With [traced], op [i] is followed by traced op [i]: alternating them
   exposes both to the same interference from the host, so the
   difference of their medians is the tracing overhead. GC words are
   counted around the untraced ops only. With [reference], the
   reference kernel runs that many times before the first op and after
   every op. *)
type loop = {
  times : float array;  (** untraced op times, us *)
  traced_times : float array;  (** traced op times, us; empty untraced *)
  reference : float array array;
      (** kernel times, us: element [i] was taken just before op [i],
          the last one after the last op; empty without [reference] *)
  setup_times : (int * float) list;
      (** set-ups re-run inside the loop: index of the next op, seconds *)
  minor_words : float;
  major_words : float;  (** allocated directly in the major heap *)
}

let timed_loop ?(warmup = 0) ?setup ?traced ?reference ~ops op =
  for i = 1 to warmup do
    ignore (op (-i));
    Option.iter (fun t -> ignore (t (-i))) traced
  done;
  Gc.compact ();
  let reference_times = Array.make (if reference = None then 0 else ops + 1) [||] in
  let reference_at i =
    Option.iter (fun reps -> reference_times.(i) <- reference_batch reps) reference
  in
  reference_at 0;
  let times = Array.make ops 0.0 in
  let traced_times = Array.make (if traced = None then 0 else ops) 0.0 in
  let setup_times = ref [] in
  let setup_every = max 1 (ops / setup_repeats) in
  let minor = ref 0.0 and major = ref 0.0 in
  for i = 0 to ops - 1 do
    (match setup with
    | Some f
      when i > 0 && i mod setup_every = 0
           && List.length !setup_times < setup_repeats - 1 ->
        setup_times := (i, snd (timed_setup f)) :: !setup_times;
        (* drop the discarded state before it can grow the heap *)
        Gc.full_major ()
    | _ -> ());
    run_op (fun () ->
        let m0, p0, j0 = Gc.counters () in
        let ns = op i in
        let m1, p1, j1 = Gc.counters () in
        minor := !minor +. (m1 -. m0);
        major := !major +. (j1 -. p1) -. (j0 -. p0);
        times.(i) <- us_of_ns ns);
    Option.iter
      (fun t -> run_op (fun () -> traced_times.(i) <- us_of_ns (t i)))
      traced;
    reference_at (i + 1)
  done;
  {
    times;
    traced_times;
    reference = reference_times;
    setup_times = !setup_times;
    minor_words = !minor;
    major_words = !major;
  }

(* {2 The host's slowdown}

   Other tenants of the host slow it down in bursts of 0.5 s to
   minutes, by up to 2x, enough to move a whole run's median op time by
   half from one run to the next. The time metrics are therefore
   corrected by the slowdown the reference kernel sees. The loop is cut
   into windows of [window] consecutive ops. A window's level is the
   median kernel time from just before its first op to just after its
   last, and every op time in the window, and every set-up time by the
   window of the op after it, is multiplied by [reference_us] / level
   before the plain statistics are taken. The factors come from the
   kernel alone, so a slowdown of the program itself, whether over the
   whole run, in some windows or in a tail, stays in the figures. *)

(* The kernel's time on an idle host of the reference type (a 2-vCPU
   Xeon). It sets the unit of the corrected times, not the comparison:
   every run of every commit is scaled to the same constant. *)
let reference_us = 20.0

let host_factors ~window l =
  let n = Array.length l.times in
  let nw = max 1 (n / window) in
  let level k =
    let first = k * window and last = if k = nw - 1 then n else (k + 1) * window in
    median (Array.concat (Array.to_list (Array.sub l.reference first (last - first + 1))))
  in
  let levels = Array.init nw level in
  Array.init n (fun i -> reference_us /. levels.(min (nw - 1) (i / window)))

(* What --trace 0 reports, for every workload. *)
let emit_end_to_end ~label ~window ~setup_s l =
  let n = Array.length l.times in
  let factor = host_factors ~window l in
  let scaled = Array.map2 ( *. ) l.times factor in
  let setups = (0, setup_s) :: l.setup_times in
  emit "ops_per_s" "1/s" (float_of_int n /. (sum scaled /. 1e6));
  emit "op_p50_us" "us" (median scaled);
  emit "op_p99_us" "us" (percentile scaled 0.99);
  emit "setup_s" "s" (median (Array.of_list (List.map (fun (i, t) -> t *. factor.(i)) setups)));
  emit "peak_heap_mb" "MB" (peak_heap_mb ());
  Printf.eprintf
    "%s: %d ops, p99 has %d samples beyond it; uncorrected medians: op %.1f us, set-up \
     %.4f s (%d); kernel median %.2f us\n%!"
    label n
    (n - int_of_float (Float.ceil (0.99 *. float_of_int n)))
    (median l.times)
    (median (Array.of_list (List.map snd setups)))
    (List.length setups)
    (median (Array.concat (Array.to_list l.reference)))

(* The per-layer metrics every workload reports from a traced loop. *)
let emit_loop_layers ~ops l =
  let per_op w = w /. float_of_int ops /. 1000.0 in
  emit "gc.minor_kw_per_op" "kw" (per_op l.minor_words);
  emit "gc.major_kw_per_op" "kw" (per_op l.major_words);
  emit "trace.overhead_pct" "%"
    (100.0 *. ((median l.traced_times /. median l.times) -. 1.0))

(* {1 toolchain: the spec compiler over the 11-spec library} *)

(* Call sites of a toolchain probe. *)
let stage_names =
  [|
    "devil_syntax.parse";
    "devil_ir.elaborate";
    "devil_check.check";
    "devil_codegen.c";
    "devil_codegen.ocaml";
    "devil_runtime.plan_compile";
  |]

let bases_of (d : Devil_ir.Ir.device) =
  List.mapi (fun i (p : Devil_ir.Ir.port) -> (p.p_name, 0x1000 * (i + 1))) d.d_ports

let compile_spec { probe } ~bus (name, src) =
  let ast =
    probe 0 (fun () -> Devil_syntax.Parser.parse_device ~file:(name ^ ".dil") src)
  in
  let ir =
    match
      probe 1 (fun () -> Devil_ir.Resolve.elaborate ~config:(spec_config name) ast)
    with
    | Ok d -> d
    | Error _ -> raise (Check_failed (name ^ ": elaboration failed"))
  in
  let diags = probe 2 (fun () -> Devil_check.Check.check ir) in
  expect (name ^ ": check reported errors")
    (not (Devil_syntax.Diagnostics.has_errors diags));
  let c = probe 3 (fun () -> Devil_codegen.C_backend.generate ir) in
  let ml = probe 4 (fun () -> Devil_codegen.Ocaml_backend.generate ir) in
  ignore (probe 5 (fun () -> Instance.create ir ~bus ~bases:(bases_of ir)));
  (c, ml)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let toolchain_pass probe ~bus ~goldens =
  let t0 = now_ns () in
  let outputs = List.map (compile_spec probe ~bus) Specs.all in
  let elapsed = now_ns () - t0 in
  List.iter2
    (fun (name, _) ((c, ml), (c_exp, ml_exp)) ->
      expect (name ^ ".c differs from its golden") (String.equal c c_exp);
      expect (name ^ ".ml differs from its golden") (String.equal ml ml_exp))
    Specs.all
    (List.combine outputs goldens);
  (elapsed, outputs)

let toolchain ~ops ~trace =
  let goldens =
    List.map
      (fun (name, _) ->
        ( read_file (Printf.sprintf "test/golden/%s.c.expected" name),
          read_file (Printf.sprintf "test/golden/%s.ml.expected" name) ))
      Specs.all
  in
  (* The first pass is the first spec compile. *)
  let setup () =
    let bus = Bus.memory () in
    ignore (toolchain_pass no_probe ~bus ~goldens);
    bus
  in
  let bus, setup_s = timed_setup setup in
  let op _ = fst (toolchain_pass no_probe ~bus ~goldens) in
  if not trace then
    emit_end_to_end ~label:"toolchain" ~window:10 ~setup_s
      (timed_loop ~warmup:3 ~setup ~reference:2 ~ops op)
  else begin
    let stages = Array.length stage_names in
    let pass_ns = Array.make stages 0 and pass_words = Array.make stages 0.0 in
    let probe =
      {
        probe =
          (fun k f ->
            let w0 = Gc.minor_words () in
            let t0 = now_ns () in
            let r = f () in
            pass_ns.(k) <- pass_ns.(k) + (now_ns () - t0);
            pass_words.(k) <- pass_words.(k) +. (Gc.minor_words () -. w0);
            r);
      }
    in
    let stage_us = Array.init stages (fun _ -> Array.make ops 0.0) in
    let stage_kw = Array.init stages (fun _ -> Array.make ops 0.0) in
    let last_outputs = ref [] in
    let traced_op i =
      Array.fill pass_ns 0 stages 0;
      Array.fill pass_words 0 stages 0.0;
      let elapsed, outputs = toolchain_pass probe ~bus ~goldens in
      if i >= 0 then begin
        last_outputs := outputs;
        for k = 0 to stages - 1 do
          stage_us.(k).(i) <- us_of_ns pass_ns.(k);
          stage_kw.(k).(i) <- pass_words.(k) /. 1000.0
        done
      end;
      elapsed
    in
    emit_loop_layers ~ops (timed_loop ~warmup:3 ~traced:traced_op ~ops op);
    Array.iteri
      (fun k name ->
        emit (name ^ "_us") "us" (median stage_us.(k));
        emit (name ^ "_kw") "kw" (median stage_kw.(k)))
      stage_names;
    let bytes f =
      float_of_int
        (List.fold_left (fun acc o -> acc + String.length (f o)) 0 !last_outputs)
    in
    emit "devil_codegen.c_bytes" "B" (bytes fst);
    emit "devil_codegen.ocaml_bytes" "B" (bytes snd)
  end

(* {1 driver_io: one round of a fixed request mix on a long-lived
   machine} *)

let sector = Hwsim.Ide_disk.sector_bytes
let pio_sectors = 8
let read_region = 256 (* pre-filled sectors the reads draw from *)
let write_base = 4096 (* sectors the loop-path writes go to *)
let fills_per_round = 16
let stub_pairs = 32
let stub_structs = 8

let classes =
  [|
    "drivers.ide_pio_read";
    "drivers.ide_pio_read_handcrafted";
    "drivers.ide_pio_write_loop";
    "drivers.gfx_fill";
    "drivers.gfx_copy";
    "drivers.ide_dma_async";
    "drivers.net_async";
    "drivers.serial_echo";
    "drivers.rtc_read";
    "devil_runtime.stub_batch";
  |]

type round = {
  pio_lba : int;
  wr_lba : int;
  wr_data : Bytes.t;
  fills : (Drivers.Gfx.rect * int) array;
  copy_src : int;  (** index into [fills] *)
  copy_dx : int;
  dma_lba : int;
  tx_frame : string;
  rx_frames : string list;
  echo : string;
  time : Drivers.Rtc.time;
  parities : int array;
}

let random_string st len = String.init len (fun _ -> Char.chr (Random.State.int st 256))

(* Fill rectangles sit one per 32x32 cell of a 4x4 grid, so they never
   overlap and each can be checked against its own colour. The copy
   lands 256 lines below the grid. *)
let gen_round st =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  {
    pio_lba = int 0 (read_region - pio_sectors);
    wr_lba = write_base + int 0 255;
    wr_data = Bytes.of_string (random_string st (2 * sector));
    fills =
      Array.init fills_per_round (fun k ->
          ( {
              Drivers.Gfx.x = (32 * (k mod 4)) + int 0 7;
              y = (32 * (k / 4)) + int 0 7;
              w = int 4 24;
              h = int 4 24;
            },
            int 1 255 ));
    copy_src = int 0 (fills_per_round - 1);
    copy_dx = int 0 640;
    dma_lba = int 0 (read_region - 2);
    tx_frame = random_string st (int 60 128);
    rx_frames = List.init (int 2 4) (fun _ -> random_string st (int 60 128));
    echo = random_string st (int 4 12);
    time = { Drivers.Rtc.hours = int 0 23; minutes = int 0 59; seconds = int 0 59 };
    parities = Array.init stub_pairs (fun _ -> int 0 7);
  }

type rig = {
  m : Machine.t;
  ide : Drivers.Ide.Devil_driver.t;
  hand : Drivers.Ide.Handcrafted.t;
  gfx : Drivers.Gfx.Devil_driver.t;
  dma : Drivers.Ide.Async.t;
  net : Drivers.Net.Async.t;
  rx : string list ref;  (** frames drained so far, newest first *)
  uart : Drivers.Serial.Devil_driver.t;
  rtc : Drivers.Rtc.Devil_driver.t;
  parity : Instance.handle;
}

let disk_fill lba = Bytes.init sector (fun j -> Char.chr (((lba * 131) + (j * 7) + 3) land 0xff))

let make_rig ?wrap_bus () =
  let m = Machine.create ?wrap_bus () in
  for lba = 0 to read_region - 1 do
    Hwsim.Ide_disk.write_sector m.disk ~lba (disk_fill lba)
  done;
  Hwsim.Piix4.set_latency m.busmaster 4;
  let sched = Machine.sched m in
  let gfx = Drivers.Gfx.Devil_driver.create m.gfx_dev in
  Drivers.Gfx.Devil_driver.set_depth gfx 8;
  let net_sync = Drivers.Net.Devil_driver.create m.ne2000_dev in
  Drivers.Net.Devil_driver.init net_sync ~mac:"\x02\x00\x00\x00\x00\x42";
  let net = Drivers.Net.Async.create ~sched ~line:Machine.irq_net m.ne2000_dev in
  let rx = ref [] in
  Drivers.Net.Async.on_frame net (fun f -> rx := f :: !rx);
  let uart = Drivers.Serial.Devil_driver.create m.uart_dev in
  Drivers.Serial.Devil_driver.init uart ~baud:115200;
  Drivers.Serial.Devil_driver.set_loopback uart true;
  {
    m;
    ide = Drivers.Ide.Devil_driver.create ~ide:m.ide_dev ~piix4:m.piix4_dev;
    hand =
      Drivers.Ide.Handcrafted.create m.bus ~cmd_base:Machine.ide_base
        ~ctrl_base:Machine.ide_ctrl_base ~bm_base:Machine.piix4_base
        ~prd_base:Machine.piix4_prd_base;
    gfx;
    dma =
      Drivers.Ide.Async.create ~sched ~line:Machine.irq_ide
        ~memory:(Hwsim.Piix4.memory m.busmaster) ~ide:m.ide_dev
        ~piix4:m.piix4_dev;
    net;
    rx;
    uart;
    rtc = Drivers.Rtc.Devil_driver.create m.rtc_dev;
    parity = Instance.handle m.uart_dev "parity_mode";
  }

let disk_bytes (m : Machine.t) ~lba ~count =
  Bytes.concat Bytes.empty
    (List.init count (fun s -> Hwsim.Ide_disk.read_sector m.disk ~lba:(lba + s)))

let rect_is (m : Machine.t) (r : Drivers.Gfx.rect) colour =
  let ok = ref true in
  for y = r.y to r.y + r.h - 1 do
    for x = r.x to r.x + r.w - 1 do
      if Hwsim.Permedia2.pixel m.gfx ~x ~y <> colour then ok := false
    done
  done;
  !ok

(* One round. [seg k f] runs request [f] of class [k] under the clock;
   everything outside [seg] is input set-up or checking against the
   device models' back doors. *)
let run_round rig r ~(seg : probe) =
  let m = rig.m in
  let seg = seg.probe in
  let got =
    seg 0 (fun () ->
        Drivers.Ide.Devil_driver.read_sectors rig.ide ~lba:r.pio_lba
          ~count:pio_sectors ~mult:1 ~path:`Block ~width:`W16)
  in
  let expected = disk_bytes m ~lba:r.pio_lba ~count:pio_sectors in
  expect "Devil PIO read" (Bytes.equal got expected);
  let got =
    seg 1 (fun () ->
        Drivers.Ide.Handcrafted.read_sectors rig.hand ~lba:r.pio_lba
          ~count:pio_sectors ~mult:1 ~path:`Block ~width:`W16)
  in
  expect "handcrafted PIO read" (Bytes.equal got expected);
  seg 2 (fun () ->
      Drivers.Ide.Devil_driver.write_sectors rig.ide ~lba:r.wr_lba ~count:2
        ~mult:1 ~path:`Loop ~width:`W16 r.wr_data);
  expect "loop-path write" (Bytes.equal (disk_bytes m ~lba:r.wr_lba ~count:2) r.wr_data);
  seg 3 (fun () ->
      Array.iter (fun (rect, color) -> Drivers.Gfx.Devil_driver.fill_rect rig.gfx rect ~color) r.fills;
      Drivers.Gfx.Devil_driver.sync rig.gfx);
  Array.iter (fun (rect, colour) -> expect "gfx fill" (rect_is m rect colour)) r.fills;
  let src, colour = r.fills.(r.copy_src) in
  let dst = { src with x = src.x + r.copy_dx; y = src.y + 256 } in
  seg 4 (fun () ->
      Drivers.Gfx.Devil_driver.copy_rect rig.gfx dst ~dx:r.copy_dx ~dy:256;
      Drivers.Gfx.Devil_driver.sync rig.gfx);
  expect "gfx copy" (rect_is m dst colour);
  expect "gfx FIFO overflow" (Hwsim.Permedia2.overflows m.gfx = 0);
  let got = ref Bytes.empty in
  seg 5 (fun () ->
      Drivers.Ide.Async.await rig.dma
        (Drivers.Ide.Async.read_dma rig.dma ~lba:r.dma_lba ~count:2
           ~on_data:(fun b -> got := b) ()));
  expect "queued DMA read" (Bytes.equal !got (disk_bytes m ~lba:r.dma_lba ~count:2));
  List.iter
    (fun f -> expect "NIC accepted frame" (Hwsim.Ne2000.inject_frame m.nic f))
    r.rx_frames;
  rig.rx := [];
  let want = List.length r.rx_frames in
  let sched = Machine.sched m in
  seg 6 (fun () ->
      Drivers.Net.Async.await rig.net (Drivers.Net.Async.send rig.net r.tx_frame);
      let budget = ref 256 in
      while List.length !(rig.rx) < want && !budget > 0 do
        Sched.tick sched;
        decr budget
      done);
  expect "net transmit" (Hwsim.Ne2000.take_transmitted m.nic = [ r.tx_frame ]);
  expect "net receive burst" (List.rev !(rig.rx) = r.rx_frames);
  expect "no request left queued" (Sched.outstanding sched = 0);
  let echoed =
    seg 7 (fun () ->
        Drivers.Serial.Devil_driver.send rig.uart r.echo;
        Drivers.Serial.Devil_driver.recv_blocking rig.uart ~max:(String.length r.echo))
  in
  expect "serial echo" (String.equal echoed r.echo);
  Hwsim.Mc146818.set_time m.rtc ~hours:r.time.hours ~minutes:r.time.minutes
    ~seconds:r.time.seconds;
  let t = seg 8 (fun () -> Drivers.Rtc.Devil_driver.read_time rig.rtc) in
  expect "rtc time" (t = r.time);
  let readback_ok =
    seg 9 (fun () ->
        let ok = ref true in
        Array.iter
          (fun v ->
            Instance.set_h m.uart_dev rig.parity (Value.Int v);
            if Instance.get_h m.uart_dev rig.parity <> Value.Int v then ok := false)
          r.parities;
        for _ = 1 to stub_structs do
          Instance.get_struct m.uart_dev "line_status"
        done;
        !ok)
  in
  expect "stub get_h after set_h" readback_ok;
  expect "parity bits in LCR"
    ((Hwsim.Uart16550.line_control m.uart lsr 3) land 7
    = r.parities.(stub_pairs - 1))

let io_sample (m : Machine.t) =
  let s = Machine.stats m in
  { Perfmodel.Cost.singles = s.reads + s.writes; block_items = s.block_items; irqs = 0 }

let warmup_rounds = 20

(* A machine past its warm-up rounds, which draw from a fixed stream so
   every machine enters the timed loop in the same state. *)
let warm_rig ?wrap_bus () =
  let rig = make_rig ?wrap_bus () in
  let warm = Random.State.make [| 0x5eed |] in
  for _ = 1 to warmup_rounds do
    run_round rig (gen_round warm) ~seg:no_probe
  done;
  rig

(* Op [i] of the timed loop on [rig]: round [i] of the stream the
   workload seed fixes. [seg] must add each request's time to [acc]. *)
let round_op rig ~seed ~seg acc =
  let st = Random.State.make [| seed; 0xd10 |] in
  fun _ ->
    acc := 0;
    run_round rig (gen_round st) ~seg;
    !acc

let driver_io ~seed ~ops ~trace =
  let setup () =
    compile_library ();
    warm_rig ()
  in
  let rig, setup_s = timed_setup setup in
  (* The untraced op times each request with the clock it reads anyway,
     so the per-request times of a traced run come from here. *)
  let acc = ref 0 and current = ref 0 in
  let per_class = Array.map (fun _ -> Array.make ops 0.0) classes in
  let clocked =
    {
      probe =
        (fun k f ->
          let t0 = now_ns () in
          let r = f () in
          let dt = now_ns () - t0 in
          acc := !acc + dt;
          per_class.(k).(!current) <- us_of_ns dt;
          r);
    }
  in
  let op =
    let run = round_op rig ~seed ~seg:clocked acc in
    fun i ->
      current := i;
      run i
  in
  if not trace then
    emit_end_to_end ~label:"driver_io" ~window:100 ~setup_s
      (timed_loop ~setup ~reference:1 ~ops op)
  else begin
    (* The traced machine: a wrapper between the drivers and the device
       models times every bus transfer. It reads the clock twice per
       transfer, so only the busy and self times come from it. *)
    let busy = ref 0 in
    let timing (b : Bus.t) : Bus.t =
      {
        read =
          (fun ~width ~addr ->
            let t0 = now_ns () in
            let v = b.read ~width ~addr in
            busy := !busy + (now_ns () - t0);
            v);
        write =
          (fun ~width ~addr ~value ->
            let t0 = now_ns () in
            b.write ~width ~addr ~value;
            busy := !busy + (now_ns () - t0));
        read_block =
          (fun ~width ~addr ~into ->
            let t0 = now_ns () in
            b.read_block ~width ~addr ~into;
            busy := !busy + (now_ns () - t0));
        write_block =
          (fun ~width ~addr ~from ->
            let t0 = now_ns () in
            b.write_block ~width ~addr ~from;
            busy := !busy + (now_ns () - t0));
      }
    in
    let traced_rig = warm_rig ~wrap_bus:timing () in
    let round_ns = ref 0 in
    let seg =
      {
        probe =
          (fun _ f ->
            let t0 = now_ns () in
            let r = f () in
            round_ns := !round_ns + (now_ns () - t0);
            r);
      }
    in
    let traced_op = round_op traced_rig ~seed ~seg round_ns in
    Machine.reset_io_stats rig.m;
    Machine.reset_io_stats traced_rig.m;
    busy := 0;
    let l = timed_loop ~traced:traced_op ~ops op in
    let sample = io_sample rig.m in
    expect_run "traced machine issued the same I/O" (io_sample traced_rig.m = sample);
    emit_loop_layers ~ops l;
    let per_op n = float_of_int n /. float_of_int ops in
    emit "hwsim.singles_per_op" "count" (per_op sample.singles);
    emit "hwsim.block_items_per_op" "count" (per_op sample.block_items);
    emit "perfmodel.sim_us_per_op" "us"
      (Perfmodel.Cost.pio_time sample *. 1e6 /. float_of_int ops);
    let p50 = Array.map median per_class in
    Array.iteri (fun k name -> emit (name ^ "_us") "us" p50.(k)) classes;
    emit "devil_runtime.stub_overhead_ratio" "ratio" (p50.(0) /. p50.(1));
    let op_us = sum l.traced_times /. float_of_int ops in
    let busy_us = us_of_ns !busy /. float_of_int ops in
    emit "trace.op_mean_us" "us" op_us;
    emit "hwsim.busy_us_per_op" "us" busy_us;
    emit "drivers.self_us_per_op" "us" (op_us -. busy_us);
    emit "hwsim.busy_share" "ratio" (busy_us /. op_us)
  end

(* {1 fault_campaign: one full fault matrix per op} *)

(* Op [i] runs campaign seed [(i mod campaign_pool) + 1], so each seed
   recurs and the tally check can compare ops. The set is fixed, not
   drawn from the workload seed: a campaign's time depends on its seed
   by up to 40%, with a heavy upper tail, and a drawn set would make
   the slowest campaign (op_p99_us) depend on the draw more than on the
   program. *)
let campaign_pool = 8

let outcomes = [ Campaign.Clean; Recovered; Detected; Silent ]

(* Checks one campaign report: every cell of the matrix ran once (so
   every cell is classified), no transient fault went silent, and the
   tally matches the first op that used the same campaign seed. *)
let check_report tallies s (r : Campaign.report) =
  let cells =
    List.concat_map
      (fun d -> List.map (fun f -> (d, f)) Campaign.fault_classes)
      Campaign.driver_workloads
  in
  expect "one trial per matrix cell"
    (List.sort compare (List.map (fun (t : Campaign.trial) -> (t.driver, t.fault)) r.trials)
    = List.sort compare cells);
  expect "no silent transient trial"
    (List.for_all
       (fun (t : Campaign.trial) -> not (t.fault = "transient" && t.outcome = Silent))
       r.trials);
  let tally =
    List.map (fun (t : Campaign.trial) -> (t.driver, t.fault, t.outcome)) r.trials
  in
  match Hashtbl.find_opt tallies s with
  | None -> Hashtbl.add tallies s tally
  | Some first -> expect "same tally for the same campaign seed" (first = tally)

let policy_state () = (Policy.default_deadline (), Policy.default_attempts ())

let fault_campaign ~ops ~trace =
  let tallies = Hashtbl.create campaign_pool in
  let policy0 = policy_state () in
  let reports = Array.make ops None in
  let campaign s =
    let t0 = now_ns () in
    let r = Campaign.run ~seeds:[ s ] () in
    let dt = now_ns () - t0 in
    expect "policy state restored" (policy_state () = policy0);
    check_report tallies s r;
    (dt, r)
  in
  (* The warm-up campaign uses a fixed seed: campaign seeds change a
     campaign's time, and set-up should not depend on the workload seed. *)
  let setup () =
    compile_library ();
    ignore (campaign (List.hd Campaign.default_seeds))
  in
  let (), setup_s = timed_setup setup in
  let op i =
    let dt, r = campaign ((i mod campaign_pool) + 1) in
    reports.(i) <- Some r;
    dt
  in
  if not trace then
    emit_end_to_end ~label:"fault_campaign" ~window:1 ~setup_s
      (timed_loop ~setup ~reference:16 ~ops op)
  else begin
    (* No probe runs inside a campaign, so the traced op is the op
       itself and the overhead it reports is the noise floor. *)
    let l = timed_loop ~traced:op ~ops op in
    emit_loop_layers ~ops l;
    let per_op f =
      let total =
        Array.fold_left
          (fun acc r -> match r with Some r -> acc + f r | None -> acc)
          0 reports
      in
      float_of_int total /. float_of_int ops
    in
    emit "faultcamp.trials_per_op" "count"
      (per_op (fun r -> List.length r.Campaign.trials));
    List.iter
      (fun o ->
        emit
          ("faultcamp." ^ Campaign.outcome_label o ^ "_per_op")
          "count"
          (per_op (fun r ->
               List.length
                 (List.filter (fun (t : Campaign.trial) -> t.outcome = o) r.trials))))
      outcomes;
    emit "faultcamp.unhealthy_per_op" "count"
      (per_op (fun r -> List.length (Campaign.unhealthy_trials r)));
    (* Machine construction as a trial does it: fault plan, metrics,
       a 128-entry trace and lifecycle reconstruction. *)
    let plan =
      Devil_runtime.Fault.plan ~label:"transient" ~budget:2 ~first:Machine.ide_base
        ~last:(Machine.ide_base + 7)
        (Devil_runtime.Fault.Transient { probability = 1.0 })
    in
    let clock f =
      let t0 = now_ns () in
      ignore (f ());
      us_of_ns (now_ns () - t0)
    in
    let micro f = median (Array.init 64 f) in
    let create_us =
      Fun.protect ~finally:Policy.unobserve (fun () ->
          micro (fun i ->
              let metrics = Devil_runtime.Metrics.create () in
              let trace = Devil_runtime.Trace.create ~capacity:128 () in
              clock (fun () ->
                  Machine.create ~faults:[ plan ] ~fault_seed:i ~metrics ~trace
                    ~lifecycle:true ())))
    in
    emit "drivers.machine_create_us" "us" create_us;
    let trials = List.length Campaign.driver_workloads * List.length Campaign.fault_classes in
    emit "drivers.machine_create_share" "ratio"
      (float_of_int trials *. create_us /. median l.times);
    emit "hwsim.permedia2_create_us" "us" (micro (fun _ -> clock Hwsim.Permedia2.create));
    let disk = Hwsim.Ide_disk.create () in
    emit "hwsim.piix4_create_us" "us"
      (micro (fun _ -> clock (fun () -> Hwsim.Piix4.create ~disk ~memory_size:(1 lsl 20))))
  end;
  expect_run "policy state restored at exit" (policy_state () = policy0)

(* {1 Driver} *)

(* Workload name, nominal ops per second (sets the op count from
   --seconds), entry point. *)
let workloads =
  [
    ("toolchain", 120.0, fun ~seed:_ -> toolchain);
    ("driver_io", 1300.0, fun ~seed -> driver_io ~seed);
    ("fault_campaign", 4.0, fun ~seed:_ -> fault_campaign);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "N nominal measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds N --trace 0|1";
  (* Machine.create instruments itself from DEVIL_TRACE and friends, and
     Campaign.run exports trials under DEVIL_FAULTCAMP_EXPORT: either
     would measure something else. *)
  (match
     List.filter
       (fun v -> String.starts_with ~prefix:"DEVIL_" v)
       (Array.to_list (Unix.environment ()))
   with
  | [] -> ()
  | vars ->
      Printf.eprintf "bench: refusing to run with %s set\n" (String.concat ", " vars);
      exit 2);
  let ops, run =
    match List.find_opt (fun (n, _, _) -> n = !workload) workloads with
    | Some (_, rate, run) when !seconds >= 1 && (!trace = 0 || !trace = 1) ->
        (max 1 (int_of_float (rate *. float_of_int !seconds)), run)
    | _ ->
        prerr_endline
          "bench: --workload toolchain|driver_io|fault_campaign, --seconds >= 1, --trace 0|1";
        exit 2
  in
  (* An exception here escaped every op: set-up itself failed, so there
     is no result to print. *)
  (try run ~seed:!seed ~ops ~trace:(!trace = 1)
   with e ->
     Printf.eprintf "bench: %s\n" (Printexc.to_string e);
     exit 1);
  List.iter (Printf.eprintf "bench: failed: %s\n") (List.rev !failure_notes);
  let body =
    List.rev_map
      (fun (name, v, unit) ->
        if not (Float.is_finite v) then begin
          Printf.eprintf "bench: %s is not finite\n" name;
          exit 1
        end;
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && !run_ok) !attempted !failed (String.concat ", " body)
