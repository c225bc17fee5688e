(* Tests for the behavioural device models (Hwsim). *)

module Io_space = Hwsim.Io_space

let case name f = Alcotest.test_case name `Quick f

let qcount default =
  match Sys.getenv_opt "DEVIL_QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* {1 I/O space} *)

let test_io_space_dispatch () =
  let space = Io_space.create () in
  Io_space.attach space ~base:0x100 ~size:4 (Hwsim.Model.ram ~name:"a" ~size:4);
  Io_space.attach space ~base:0x200 ~size:4 (Hwsim.Model.ram ~name:"b" ~size:4);
  let bus = Io_space.bus space in
  bus.Devil_runtime.Bus.write ~width:8 ~addr:0x101 ~value:0x42;
  Alcotest.(check int) "routed" 0x42 (bus.Devil_runtime.Bus.read ~width:8 ~addr:0x101);
  Alcotest.(check int) "isolated" 0 (bus.Devil_runtime.Bus.read ~width:8 ~addr:0x201);
  Alcotest.(check int) "ops counted" 3 (Io_space.io_ops space);
  (match bus.Devil_runtime.Bus.read ~width:8 ~addr:0x300 with
  | exception Devil_runtime.Instance.Device_error _ -> ()
  | _ -> Alcotest.fail "bus fault not raised");
  match Io_space.attach space ~base:0x102 ~size:4 (Hwsim.Model.ram ~name:"c" ~size:4) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping attach accepted"

let test_io_space_blocks () =
  let space = Io_space.create () in
  Io_space.attach space ~base:0 ~size:1 (Hwsim.Model.ram ~name:"r" ~size:1);
  let bus = Io_space.bus space in
  bus.Devil_runtime.Bus.write_block ~width:8 ~addr:0 ~from:[| 1; 2; 3 |];
  let into = Array.make 2 0 in
  bus.Devil_runtime.Bus.read_block ~width:8 ~addr:0 ~into;
  let stats = Io_space.stats space in
  Alcotest.(check int) "block ops" 2 stats.Io_space.block_ops;
  Alcotest.(check int) "block items" 5 stats.Io_space.block_items;
  Alcotest.(check int) "io ops" 5 (Io_space.io_ops space);
  Alcotest.(check int) "singles" 0 (Io_space.single_ops space)

(* A model that records every call, to see which transfers reach it. *)
let recording_model () =
  let calls = ref [] in
  let model =
    {
      Hwsim.Model.name = "rec";
      read =
        (fun ~width:_ ~offset ->
          calls := Printf.sprintf "R%d" offset :: !calls;
          List.length !calls);
      write =
        (fun ~width:_ ~offset ~value ->
          calls := Printf.sprintf "W%d=%d" offset value :: !calls);
    }
  in
  (model, calls)

let device_error f =
  match f () with
  | exception Devil_runtime.Instance.Device_error m -> m
  | _ -> Alcotest.fail "no Device_error raised"

let counts space =
  let s = Io_space.stats space in
  Io_space.[ s.reads; s.writes; s.block_ops; s.block_items ]

(* An unmapped address is the same permanent device error whether a
   single transfer or a block transfer reaches it; the block is still
   counted, as a single transfer is. *)
let test_io_space_unmapped_block () =
  let space = Io_space.create () in
  let model, calls = recording_model () in
  Io_space.attach space ~base:0x100 ~size:2 model;
  let bus = Io_space.bus space in
  let single = device_error (fun () -> bus.Devil_runtime.Bus.read ~width:16 ~addr:0x300) in
  Alcotest.(check string) "single read" "bus fault: no device at address 0x300" single;
  Alcotest.(check string) "single write" single
    (device_error (fun () ->
         bus.Devil_runtime.Bus.write ~width:16 ~addr:0x300 ~value:1));
  Alcotest.(check string) "read block" single
    (device_error (fun () ->
         bus.Devil_runtime.Bus.read_block ~width:16 ~addr:0x300
           ~into:(Array.make 3 0)));
  Alcotest.(check string) "write block" single
    (device_error (fun () ->
         bus.Devil_runtime.Bus.write_block ~width:16 ~addr:0x300 ~from:[| 1; 2 |]));
  Alcotest.(check (list int)) "all four counted" [ 1; 1; 2; 5 ] (counts space);
  Alcotest.(check (list string)) "no model touched" [] !calls

(* An empty block resolves no region: it touches no model, even at an
   unmapped address, and counts one block op of no items. *)
let test_io_space_empty_block () =
  let space = Io_space.create () in
  let model, calls = recording_model () in
  Io_space.attach space ~base:0x100 ~size:2 model;
  let bus = Io_space.bus space in
  List.iter
    (fun addr ->
      bus.Devil_runtime.Bus.read_block ~width:8 ~addr ~into:[||];
      bus.Devil_runtime.Bus.write_block ~width:8 ~addr ~from:[||])
    [ 0x100; 0x300 ];
  Alcotest.(check (list int)) "block ops only" [ 0; 0; 4; 0 ] (counts space);
  Alcotest.(check (list string)) "no model touched" [] !calls;
  let into = Array.make 3 0 in
  bus.Devil_runtime.Bus.read_block ~width:8 ~addr:0x101 ~into;
  bus.Devil_runtime.Bus.write_block ~width:8 ~addr:0x101 ~from:[| 7; 8 |];
  Alcotest.(check (list string)) "one model call per element, in order"
    [ "R1"; "R1"; "R1"; "W1=7"; "W1=8" ] (List.rev !calls);
  Alcotest.(check (list int)) "elements read in order" [ 1; 2; 3 ]
    (Array.to_list into)

(* Below Debug, dispatch allocates nothing per transfer or element. *)
let test_io_space_allocation_free () =
  let space = Io_space.create () in
  Io_space.attach space ~base:0x100 ~size:4 (Hwsim.Model.ram ~name:"a" ~size:4);
  Io_space.attach space ~base:0x200 ~size:4 (Hwsim.Model.ram ~name:"b" ~size:4);
  let bus = Io_space.bus space in
  let block = Array.make 64 0 in
  let a0 = Gc.allocated_bytes () in
  for i = 1 to 10_000 do
    bus.Devil_runtime.Bus.write ~width:8 ~addr:0x203 ~value:i;
    ignore (bus.Devil_runtime.Bus.read ~width:8 ~addr:0x203);
    bus.Devil_runtime.Bus.read_block ~width:8 ~addr:0x201 ~into:block;
    bus.Devil_runtime.Bus.write_block ~width:8 ~addr:0x201 ~from:block
  done;
  let a1 = Gc.allocated_bytes () in
  (* allocated_bytes itself boxes its float results; allow that. *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-transfer allocation (%.0f bytes for 10k rounds)"
       (a1 -. a0))
    true
    (a1 -. a0 < 512.0)

(* With hwsim.bus at Debug, every single transfer and every block
   element logs exactly one line: the level check in front of the log
   call must not lose any. *)
let test_io_space_debug_log () =
  let src =
    List.find (fun s -> Logs.Src.name s = "hwsim.bus") (Logs.Src.list ())
  in
  let lines = ref [] in
  let capture =
    {
      Logs.report =
        (fun s _level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun line ->
                  if s == src then lines := line :: !lines;
                  over ();
                  k ())
                fmt));
    }
  in
  let saved_reporter = Logs.reporter () and saved_level = Logs.Src.level src in
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter saved_reporter;
      Logs.Src.set_level src saved_level)
    (fun () ->
      Logs.set_reporter capture;
      let space = Io_space.create () in
      Io_space.attach space ~base:0x10 ~size:1 (Hwsim.Model.ram ~name:"r" ~size:1);
      let bus = Io_space.bus space in
      let traffic () =
        bus.Devil_runtime.Bus.write ~width:8 ~addr:0x10 ~value:5;
        ignore (bus.Devil_runtime.Bus.read ~width:8 ~addr:0x10);
        bus.Devil_runtime.Bus.write_block ~width:8 ~addr:0x10 ~from:[| 1; 2; 3 |];
        bus.Devil_runtime.Bus.read_block ~width:8 ~addr:0x10 ~into:(Array.make 2 0)
      in
      Logs.Src.set_level src (Some Logs.Info);
      traffic ();
      Alcotest.(check int) "silent below Debug" 0 (List.length !lines);
      Logs.Src.set_level src (Some Logs.Debug);
      traffic ();
      Alcotest.(check (list string)) "one line per transfer and element"
        [
          "r: W8 [0x10] <- 0x5";
          "r: R8 [0x10] -> 0x5";
          "r: W8 [0x10] <- 0x1";
          "r: W8 [0x10] <- 0x2";
          "r: W8 [0x10] <- 0x3";
          "r: R8 [0x10] -> 0x3";
          "r: R8 [0x10] -> 0x3";
        ]
        (List.rev !lines))

(* {1 Busmouse} *)

let test_busmouse_cycle () =
  let m = Hwsim.Busmouse.create () in
  let model = Hwsim.Busmouse.model m in
  let rd off = model.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = model.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  Hwsim.Busmouse.move m ~dx:5 ~dy:(-3);
  Hwsim.Busmouse.set_buttons m 0b101;
  let nibble i =
    wr 2 (0x80 lor (i lsl 5));
    rd 0
  in
  let dx = nibble 0 lor (nibble 1 lsl 4) in
  let y3 = nibble 3 in
  let dy = nibble 2 lor ((y3 land 0xf) lsl 4) in
  Alcotest.(check int) "dx" 5 dx;
  Alcotest.(check int) "dy" 0xfd dy;
  Alcotest.(check int) "buttons" 0b101 (y3 lsr 5);
  (* The cycle completion cleared the counters. *)
  Alcotest.(check int) "cleared" 0 (nibble 0 lor (nibble 1 lsl 4))

let test_busmouse_control_decode () =
  let m = Hwsim.Busmouse.create () in
  let model = Hwsim.Busmouse.model m in
  let wr off v = model.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr 2 0x00;
  Alcotest.(check bool) "irq on" true (Hwsim.Busmouse.interrupt_enabled m);
  wr 2 0x10;
  Alcotest.(check bool) "irq off" false (Hwsim.Busmouse.interrupt_enabled m);
  wr 2 0xe0;  (* index write: must not touch the irq flag *)
  Alcotest.(check bool) "irq unchanged" false (Hwsim.Busmouse.interrupt_enabled m);
  wr 3 0x90;
  Alcotest.(check int) "config" 0x90 (Hwsim.Busmouse.config_byte m)

let test_busmouse_clamp () =
  let m = Hwsim.Busmouse.create () in
  Hwsim.Busmouse.move m ~dx:200 ~dy:(-300);
  Hwsim.Busmouse.move m ~dx:100 ~dy:(-100);
  (* Saturates at the signed 8-bit bounds rather than wrapping. *)
  let model = Hwsim.Busmouse.model m in
  let rd off = model.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = model.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  let nibble i = wr 2 (0x80 lor (i lsl 5)); rd 0 in
  let dx = nibble 0 lor (nibble 1 lsl 4) in
  Alcotest.(check int) "saturated" 127 dx

(* {1 IDE disk} *)

let test_ide_pio_roundtrip () =
  let d = Hwsim.Ide_disk.create () in
  let m = Hwsim.Ide_disk.command_model d in
  let rd off = m.Hwsim.Model.read ~width:16 ~offset:off in
  let rd8 off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr8 off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  let wr off v = m.Hwsim.Model.write ~width:16 ~offset:off ~value:v in
  (* write one sector at LBA 5 *)
  wr8 2 1; wr8 3 5; wr8 4 0; wr8 5 0; wr8 6 0xe0;
  wr8 7 0x30;
  for i = 0 to 255 do
    wr 0 (i * 3)
  done;
  Alcotest.(check bool) "irq after write" true (Hwsim.Ide_disk.take_irq d);
  (* read it back *)
  wr8 2 1; wr8 3 5; wr8 7 0x20;
  Alcotest.(check bool) "irq after read cmd" true (Hwsim.Ide_disk.irq_pending d);
  let st = rd8 7 in
  Alcotest.(check bool) "drq" true (st land 0x08 <> 0);
  Alcotest.(check bool) "irq acked by status read" false (Hwsim.Ide_disk.irq_pending d);
  let ok = ref true in
  for i = 0 to 255 do
    if rd 0 <> (i * 3) land 0xffff then ok := false
  done;
  Alcotest.(check bool) "data" true !ok;
  Alcotest.(check bool) "drq clear" true (rd8 7 land 0x08 = 0)

let test_ide_multi_sector_irqs () =
  let d = Hwsim.Ide_disk.create () in
  Hwsim.Ide_disk.set_multiple d 4;
  let m = Hwsim.Ide_disk.command_model d in
  let rd off = m.Hwsim.Model.read ~width:16 ~offset:off in
  let wr8 off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  Hwsim.Ide_disk.reset_irq_count d;
  wr8 2 8; wr8 3 0; wr8 7 0x20;
  for _ = 1 to 8 * 256 do
    ignore (rd 0)
  done;
  (* 8 sectors at 4 per DRQ block: 2 interrupts. *)
  Alcotest.(check int) "irqs" 2 (Hwsim.Ide_disk.irq_count d)

let test_ide_dma_handshake () =
  let d = Hwsim.Ide_disk.create () in
  Hwsim.Ide_disk.write_sector d ~lba:9 (Bytes.make 512 'z');
  let m = Hwsim.Ide_disk.command_model d in
  let wr8 off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr8 2 1; wr8 3 9; wr8 7 0xc8;
  (match Hwsim.Ide_disk.dma_read_pending d with
  | Some (9, 1) -> ()
  | _ -> Alcotest.fail "dma not pending");
  Hwsim.Ide_disk.dma_complete d;
  Alcotest.(check bool) "irq" true (Hwsim.Ide_disk.take_irq d);
  Alcotest.(check bool) "idle" true (Hwsim.Ide_disk.dma_read_pending d = None)

let test_ide_abort_unknown_command () =
  let d = Hwsim.Ide_disk.create () in
  let m = Hwsim.Ide_disk.command_model d in
  let rd8 off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr8 off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr8 7 0x99;
  Alcotest.(check bool) "error bit" true (rd8 7 land 0x01 <> 0);
  Alcotest.(check int) "abort code" 0x04 (rd8 1)

(* {1 NE2000} *)

let ne_setup () =
  let n = Hwsim.Ne2000.create () in
  let m = Hwsim.Ne2000.model n in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  (n, rd, wr)

let test_ne2000_remote_dma () =
  let n, rd, wr = ne_setup () in
  wr 0 0x22;  (* start *)
  (* remote write 4 bytes at 0x4000 *)
  wr 8 0x00; wr 9 0x40; wr 10 4; wr 11 0;
  wr 0 0x12;  (* start + remote write *)
  List.iter (fun b -> wr 16 b) [ 0xde; 0xad; 0xbe; 0xef ];
  Alcotest.(check int) "ram" 0xad (Hwsim.Ne2000.ram_byte n 0x4001);
  Alcotest.(check bool) "rdc set" true (rd 7 land 0x40 <> 0);
  (* remote read back *)
  wr 8 0x00; wr 9 0x40; wr 10 4; wr 11 0;
  wr 0 0x0a;  (* start + remote read *)
  Alcotest.(check (list int)) "readback" [ 0xde; 0xad; 0xbe; 0xef ]
    (List.init 4 (fun _ -> rd 16))

let test_ne2000_loopback_rx_ring () =
  let n, rd, wr = ne_setup () in
  wr 0 0x22;
  wr 13 0x02;  (* TCR loopback *)
  (* place a frame in tx memory via remote DMA *)
  let frame = "abcdefgh" in
  wr 8 0; wr 9 0x40; wr 10 (String.length frame); wr 11 0;
  wr 0 0x12;  (* start + remote write *)
  String.iter (fun c -> wr 16 (Char.code c)) frame;
  (* transmit *)
  wr 4 0x40; wr 5 (String.length frame); wr 6 0;
  wr 0 (0x22 lor 0x04);
  Alcotest.(check bool) "ptx" true (rd 7 land 0x02 <> 0);
  Alcotest.(check bool) "prx" true (rd 7 land 0x01 <> 0);
  (* the receive header is at the old CURR page *)
  Alcotest.(check int) "rx status" 0x01 (Hwsim.Ne2000.ram_byte n 0x4600);
  Alcotest.(check int) "length lo" (String.length frame + 4)
    (Hwsim.Ne2000.ram_byte n 0x4602);
  Alcotest.(check int) "payload" (Char.code 'a') (Hwsim.Ne2000.ram_byte n 0x4604)

let test_ne2000_inject_and_overflow () =
  let n, _, wr = ne_setup () in
  Alcotest.(check bool) "stopped: rejected" false
    (Hwsim.Ne2000.inject_frame n "xx");
  wr 0 0x22;
  Alcotest.(check bool) "accepted" true (Hwsim.Ne2000.inject_frame n "xx");
  (* Fill the ring until it refuses. *)
  let big = String.make 1000 'y' in
  let rec fill n_acc =
    if Hwsim.Ne2000.inject_frame n big then fill (n_acc + 1) else n_acc
  in
  let accepted = fill 0 in
  Alcotest.(check bool) "ring eventually full" true (accepted < 60)

let test_ne2000_wire_tx () =
  let n, _, wr = ne_setup () in
  wr 0 0x22;
  wr 13 0x00;  (* normal mode *)
  wr 8 0; wr 9 0x40; wr 10 2; wr 11 0;
  wr 0 0x12;  (* start + remote write *)
  wr 16 0x68; wr 16 0x69;
  wr 4 0x40; wr 5 2; wr 6 0;
  wr 0 (0x22 lor 0x04);
  Alcotest.(check (list string)) "on the wire" [ "hi" ]
    (Hwsim.Ne2000.take_transmitted n)

(* {1 8237 DMA} *)

let test_dma8237_flipflop () =
  let d = Hwsim.Dma8237.create ~memory_size:256 in
  let m = Hwsim.Dma8237.model d in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr 12 0;  (* clear flip-flop *)
  wr 1 0x34; wr 1 0x12;  (* channel 0 count = 0x1234 *)
  Alcotest.(check int) "count" 0x1234 (Hwsim.Dma8237.programmed_count d ~channel:0);
  wr 12 0;
  Alcotest.(check int) "low" 0x34 (rd 1);
  Alcotest.(check int) "high" 0x12 (rd 1)

let test_dma8237_transfer () =
  let d = Hwsim.Dma8237.create ~memory_size:256 in
  let m = Hwsim.Dma8237.model d in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr 13 0;  (* master clear *)
  wr 11 0x45;  (* channel 1, write-to-memory, single *)
  wr 12 0;
  wr 2 0x10; wr 2 0x00;  (* address 0x10 *)
  wr 12 0;
  wr 3 3; wr 3 0;  (* count 3 -> 4 bytes *)
  wr 10 0x01;  (* unmask channel 1 *)
  let moved =
    Hwsim.Dma8237.device_request d ~channel:1
      ~data:(Bytes.of_string "wxyz") Hwsim.Dma8237.To_memory
  in
  Alcotest.(check int) "bytes moved" 4 moved;
  Alcotest.(check string) "memory" "wxyz"
    (Bytes.sub_string (Hwsim.Dma8237.memory d) 0x10 4);
  Alcotest.(check bool) "tc" true (Hwsim.Dma8237.terminal_count d ~channel:1);
  Alcotest.(check bool) "auto-masked" true (Hwsim.Dma8237.channel_masked d ~channel:1)

let test_dma8237_masked_channel () =
  let d = Hwsim.Dma8237.create ~memory_size:64 in
  let moved =
    Hwsim.Dma8237.device_request d ~channel:0 ~data:(Bytes.make 4 'a')
      Hwsim.Dma8237.To_memory
  in
  Alcotest.(check int) "refused" 0 moved

(* {1 8259 PIC} *)

let pic_setup () =
  let p = Hwsim.Pic8259.create () in
  let m = Hwsim.Pic8259.model p in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  (p, rd, wr)

let init_pc_master wr =
  wr 0 0x11;  (* ICW1: cascaded, ICW4 needed *)
  wr 1 0x20;  (* ICW2: vectors at 0x20 *)
  wr 1 0x04;  (* ICW3 *)
  wr 1 0x01   (* ICW4: 8086 mode *)

let test_pic_init_variants () =
  let p, _, wr = pic_setup () in
  init_pc_master wr;
  Alcotest.(check bool) "initialized" true (Hwsim.Pic8259.initialized p);
  Alcotest.(check int) "vectors" 0x20 (Hwsim.Pic8259.vector_base p);
  (* Single + no ICW4: two writes suffice. *)
  let p2, _, wr2 = pic_setup () in
  wr2 0 0x12;
  wr2 1 0x40;
  Alcotest.(check bool) "short init" true (Hwsim.Pic8259.initialized p2);
  Alcotest.(check int) "vectors 2" 0x40 (Hwsim.Pic8259.vector_base p2)

let test_pic_priorities () =
  let p, _, wr = pic_setup () in
  init_pc_master wr;
  wr 1 0x00;  (* OCW1: unmask all *)
  Hwsim.Pic8259.raise_irq p ~line:3;
  Hwsim.Pic8259.raise_irq p ~line:1;
  Alcotest.(check (option int)) "highest first" (Some 0x21) (Hwsim.Pic8259.inta p);
  (* line 3 is pending but nested below the in-service line 1. *)
  Alcotest.(check bool) "nested blocks" false (Hwsim.Pic8259.int_asserted p);
  wr 0 0x20;  (* non-specific EOI *)
  Alcotest.(check (option int)) "then lower" (Some 0x23) (Hwsim.Pic8259.inta p);
  wr 0 0x20;
  Alcotest.(check int) "isr clear" 0 (Hwsim.Pic8259.isr p)

let test_pic_masking_and_reads () =
  let p, rd, wr = pic_setup () in
  init_pc_master wr;
  wr 1 0xfd;  (* only line 1 open *)
  Hwsim.Pic8259.raise_irq p ~line:0;
  Hwsim.Pic8259.raise_irq p ~line:1;
  Alcotest.(check (option int)) "masked line skipped" (Some 0x21)
    (Hwsim.Pic8259.inta p);
  wr 0 0x0a;  (* OCW3: read IRR *)
  Alcotest.(check int) "irr" 0x01 (rd 0);
  wr 0 0x0b;  (* OCW3: read ISR *)
  Alcotest.(check int) "isr" 0x02 (rd 0);
  Alcotest.(check int) "imr readback" 0xfd (rd 1)

(* {1 CS4236B} *)

let test_cs4236b_indexed () =
  let c = Hwsim.Cs4236b.create () in
  let m = Hwsim.Cs4236b.model c in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  wr 0 6; wr 1 0x2a;
  Alcotest.(check int) "I6" 0x2a (Hwsim.Cs4236b.indexed_reg c 6);
  wr 0 6;
  Alcotest.(check int) "readback" 0x2a (rd 1)

let test_cs4236b_automaton () =
  let c = Hwsim.Cs4236b.create () in
  let m = Hwsim.Cs4236b.model c in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  (* select I23, write XA=25 with XRAE: bits [2,7..4]=11001, bit3=1 *)
  wr 0 23;
  let xa25 = 0x90 lor 0x04 lor 0x08 in  (* bits 7..4 = 1001, bit2=1, XRAE *)
  wr 1 xa25;
  Alcotest.(check bool) "extended" true (Hwsim.Cs4236b.extended_mode c);
  Alcotest.(check int) "X25 version" Hwsim.Cs4236b.chip_version (rd 1);
  (* X25 is read-only *)
  wr 1 0x55;
  Alcotest.(check int) "still version" Hwsim.Cs4236b.chip_version
    (Hwsim.Cs4236b.extended_reg c 25);
  (* control write leaves extended mode *)
  wr 0 0;
  Alcotest.(check bool) "left extended" false (Hwsim.Cs4236b.extended_mode c)

let test_cs4236b_pcm () =
  let c = Hwsim.Cs4236b.create () in
  let m = Hwsim.Cs4236b.model c in
  let rd off = m.Hwsim.Model.read ~width:8 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:8 ~offset:off ~value:v in
  Alcotest.(check int) "no data" 0 (rd 2);
  Hwsim.Cs4236b.queue_pcm c [ 1; 2; 3 ];
  Alcotest.(check int) "data ready" 1 (rd 2);
  let s1 = rd 3 in
  let s2 = rd 3 in
  let s3 = rd 3 in
  Alcotest.(check (list int)) "capture" [ 1; 2; 3 ] [ s1; s2; s3 ];
  wr 3 9; wr 3 8;
  Alcotest.(check (list int)) "playback" [ 9; 8 ] (Hwsim.Cs4236b.played c)

(* {1 Permedia2} *)

let test_permedia_fill_copy () =
  let g = Hwsim.Permedia2.create ~width:64 ~height:32 () in
  let m = Hwsim.Permedia2.mmio_model g in
  let wr off v = m.Hwsim.Model.write ~width:32 ~offset:off ~value:v in
  wr 6 8;
  wr 1 0x7;
  wr 2 (4 lor (5 lsl 16));
  wr 3 (3 lor (2 lsl 16));
  wr 5 0x1;
  (* drain *)
  let rd off = m.Hwsim.Model.read ~width:32 ~offset:off in
  while rd 7 <> 0 do () done;
  Alcotest.(check int) "filled" 0x7 (Hwsim.Permedia2.pixel g ~x:5 ~y:6);
  Alcotest.(check int) "outside" 0 (Hwsim.Permedia2.pixel g ~x:3 ~y:5);
  (* copy right by 8 *)
  wr 2 (12 lor (5 lsl 16));
  wr 3 (3 lor (2 lsl 16));
  wr 4 8;
  wr 5 0x2;
  while rd 7 <> 0 do () done;
  Alcotest.(check int) "copied" 0x7 (Hwsim.Permedia2.pixel g ~x:13 ~y:6)

let test_permedia_fifo () =
  let g = Hwsim.Permedia2.create () in
  let m = Hwsim.Permedia2.mmio_model g in
  let rd off = m.Hwsim.Model.read ~width:32 ~offset:off in
  let wr off v = m.Hwsim.Model.write ~width:32 ~offset:off ~value:v in
  Alcotest.(check int) "initially free" Hwsim.Permedia2.fifo_capacity (rd 0);
  (* A big fill keeps the engine busy; pile writes onto the queue. *)
  wr 6 32;
  wr 2 0; wr 3 (500 lor (500 lsl 16)); wr 5 1;
  let free_before = rd 0 in
  for _ = 1 to Hwsim.Permedia2.fifo_capacity + 10 do
    wr 1 0
  done;
  Alcotest.(check bool) "fifo filled" true (rd 0 < free_before);
  Alcotest.(check bool) "overflow recorded" true (Hwsim.Permedia2.overflows g > 0)

(* The framebuffer allocates a row on its first write. A flat array
   with the engine's documented fill/copy semantics is the reference:
   random fills, copies (both signs of dx/dy, overlapping rectangles)
   and aperture cursor reads/writes (past the end included) must agree
   pixel for pixel and on every value read back. *)
type fb_op =
  | Fill of { x : int; y : int; w : int; h : int; colour : int }
  | Copy of { x : int; y : int; w : int; h : int; dx : int; dy : int }
  | Aperture_write of { x : int; y : int; values : int list }
  | Aperture_read of { x : int; y : int; count : int }

let fb_w = 13
let fb_h = 9

let pp_fb_op = function
  | Fill { x; y; w; h; colour } ->
      Printf.sprintf "fill (%d,%d) %dx%d = %d" x y w h colour
  | Copy { x; y; w; h; dx; dy } ->
      Printf.sprintf "copy (%d,%d) %dx%d by (%d,%d)" x y w h dx dy
  | Aperture_write { x; y; values } ->
      Printf.sprintf "write (%d,%d) [%s]" x y
        (String.concat ";" (List.map string_of_int values))
  | Aperture_read { x; y; count } -> Printf.sprintf "read (%d,%d) %d" x y count

let fb_op_gen =
  QCheck.Gen.(
    let x = int_bound (fb_w + 3) and y = int_bound (fb_h + 3) in
    let w = int_bound fb_w and h = int_bound fb_h and d = int_range (-5) 5 in
    frequency
      [
        ( 3,
          map
            (fun ((x, y), (w, h), colour) -> Fill { x; y; w; h; colour })
            (triple (pair x y) (pair w h) (int_bound 3)) );
        ( 3,
          map
            (fun ((x, y), (w, h), (dx, dy)) -> Copy { x; y; w; h; dx; dy })
            (triple (pair x y) (pair w h) (pair d d)) );
        ( 2,
          map
            (fun ((x, y), values) -> Aperture_write { x; y; values })
            (pair (pair x y) (list_size (int_bound (2 * fb_w)) (int_bound 255)))
        );
        ( 2,
          map
            (fun ((x, y), count) -> Aperture_read { x; y; count })
            (pair (pair x y) (int_bound (2 * fb_w))) );
      ])

(* The reference framebuffer. *)
let flat_apply fb reads = function
  | Fill { x; y; w; h; colour } ->
      for py = y to y + h - 1 do
        for px = x to x + w - 1 do
          if px < fb_w && py < fb_h then fb.((py * fb_w) + px) <- colour
        done
      done
  | Copy { x; y; w; h; dx; dy } ->
      let get px py =
        if px < 0 || py < 0 || px >= fb_w || py >= fb_h then 0
        else fb.((py * fb_w) + px)
      in
      let row py px =
        if px < fb_w && py < fb_h then
          fb.((py * fb_w) + px) <- get (px - dx) (py - dy)
      in
      let cols py =
        if dx > 0 then for px = x + w - 1 downto x do row py px done
        else for px = x to x + w - 1 do row py px done
      in
      if dy > 0 then for py = y + h - 1 downto y do cols py done
      else for py = y to y + h - 1 do cols py done
  | Aperture_write { x; y; values } ->
      List.iteri
        (fun i v ->
          let c = (y * fb_w) + x + i in
          if c < fb_w * fb_h then fb.(c) <- v)
        values
  | Aperture_read { x; y; count } ->
      for i = 0 to count - 1 do
        let c = (y * fb_w) + x + i in
        reads := (if c < fb_w * fb_h then fb.(c) else 0) :: !reads
      done

(* The same operation driven through the engine's registers and the
   aperture, draining the engine after each command. *)
let engine_apply g reads op =
  let m = Hwsim.Permedia2.mmio_model g and ap = Hwsim.Permedia2.fb_model g in
  let wr off v = m.Hwsim.Model.write ~width:32 ~offset:off ~value:v in
  let drain () = while m.Hwsim.Model.read ~width:32 ~offset:7 <> 0 do () done in
  let at x y = wr 2 (x lor (y lsl 16)) in
  let rect x y w h =
    at x y;
    wr 3 (w lor (h lsl 16))
  in
  (match op with
  | Fill { x; y; w; h; colour } ->
      rect x y w h;
      wr 1 colour;
      wr 5 1
  | Copy { x; y; w; h; dx; dy } ->
      rect x y w h;
      wr 4 ((dx land 0xffff) lor ((dy land 0xffff) lsl 16));
      wr 5 2
  | Aperture_write { x; y; values } ->
      at x y;
      drain ();
      List.iter (fun v -> ap.Hwsim.Model.write ~width:32 ~offset:0 ~value:v) values
  | Aperture_read { x; y; count } ->
      at x y;
      drain ();
      for _ = 1 to count do
        reads := ap.Hwsim.Model.read ~width:32 ~offset:0 :: !reads
      done);
  drain ()

let permedia_matches_flat_reference =
  QCheck.Test.make ~count:(qcount 200)
    ~name:"row-lazy framebuffer matches a flat-array reference"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_fb_op ops))
       QCheck.Gen.(list_size (int_bound 25) fb_op_gen))
    (fun ops ->
      let g = Hwsim.Permedia2.create ~width:fb_w ~height:fb_h () in
      let flat = Array.make (fb_w * fb_h) 0 in
      let engine_reads = ref [] and flat_reads = ref [] in
      List.iter
        (fun op ->
          engine_apply g engine_reads op;
          flat_apply flat flat_reads op)
        ops;
      let pixels_agree = ref true in
      for y = -2 to fb_h + 2 do
        for x = -2 to fb_w + 2 do
          let expected =
            if x < 0 || y < 0 || x >= fb_w || y >= fb_h then 0
            else flat.((y * fb_w) + x)
          in
          if Hwsim.Permedia2.pixel g ~x ~y <> expected then pixels_agree := false
        done
      done;
      !pixels_agree && !engine_reads = !flat_reads
      && Hwsim.Permedia2.overflows g = 0)

let test_permedia_untouched_reads_zero () =
  let g = Hwsim.Permedia2.create () in
  let ap = Hwsim.Permedia2.fb_model g in
  Alcotest.(check int) "untouched pixel" 0 (Hwsim.Permedia2.pixel g ~x:1023 ~y:767);
  Alcotest.(check int) "out of range" 0 (Hwsim.Permedia2.pixel g ~x:1024 ~y:0);
  Alcotest.(check int) "negative" 0 (Hwsim.Permedia2.pixel g ~x:(-1) ~y:3);
  Alcotest.(check int) "untouched aperture" 0 (ap.Hwsim.Model.read ~width:32 ~offset:0);
  Hwsim.Permedia2.set_pixel g ~x:1024 ~y:0 9;
  Hwsim.Permedia2.set_pixel g ~x:0 ~y:768 9;
  Alcotest.(check int) "out-of-range write dropped" 0 (Hwsim.Permedia2.pixel g ~x:0 ~y:1);
  Hwsim.Permedia2.set_pixel g ~x:1023 ~y:767 9;
  Alcotest.(check int) "last pixel" 9 (Hwsim.Permedia2.pixel g ~x:1023 ~y:767);
  Alcotest.(check int) "its row neighbour" 0 (Hwsim.Permedia2.pixel g ~x:1022 ~y:767)

let () =
  Alcotest.run "hwsim"
    [
      ( "io_space",
        [
          case "dispatch and faults" test_io_space_dispatch;
          case "block accounting" test_io_space_blocks;
          case "unmapped block is the single-transfer error"
            test_io_space_unmapped_block;
          case "empty block touches no model" test_io_space_empty_block;
          case "dispatch allocates nothing" test_io_space_allocation_free;
          case "Debug logs every transfer and element" test_io_space_debug_log;
        ] );
      ( "busmouse",
        [
          case "read cycle" test_busmouse_cycle;
          case "control decode" test_busmouse_control_decode;
          case "saturation" test_busmouse_clamp;
        ] );
      ( "ide",
        [
          case "pio roundtrip" test_ide_pio_roundtrip;
          case "multi-sector interrupts" test_ide_multi_sector_irqs;
          case "dma handshake" test_ide_dma_handshake;
          case "unknown command aborts" test_ide_abort_unknown_command;
        ] );
      ( "ne2000",
        [
          case "remote dma" test_ne2000_remote_dma;
          case "loopback to rx ring" test_ne2000_loopback_rx_ring;
          case "inject and ring-full" test_ne2000_inject_and_overflow;
          case "wire transmit" test_ne2000_wire_tx;
        ] );
      ( "dma8237",
        [
          case "flip-flop latching" test_dma8237_flipflop;
          case "device transfer" test_dma8237_transfer;
          case "masked channel refuses" test_dma8237_masked_channel;
        ] );
      ( "pic8259",
        [
          case "init variants" test_pic_init_variants;
          case "priorities and eoi" test_pic_priorities;
          case "masking and status reads" test_pic_masking_and_reads;
        ] );
      ( "cs4236b",
        [
          case "indexed registers" test_cs4236b_indexed;
          case "extended-register automaton" test_cs4236b_automaton;
          case "pcm fifo" test_cs4236b_pcm;
        ] );
      ( "permedia2",
        [
          case "fill and copy" test_permedia_fill_copy;
          case "fifo and overflow" test_permedia_fifo;
          case "untouched and out-of-range pixels read 0"
            test_permedia_untouched_reads_zero;
          QCheck_alcotest.to_alcotest permedia_matches_flat_reference;
        ] );
    ]
