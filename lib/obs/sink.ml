(* The instrumentation hook handed to the library layers.

   A sink bundles an optional metrics registry, an optional flight
   recorder (the one event ring) and the current (virtual time,
   worker) context, which the scheduler updates as it steps so that
   layers with no clock of their own (the OM structures, the race
   detector) stamp their events correctly.

   [null] is the process-wide disabled sink: every path is
   instrumented against it by default and pays only a field load and
   an option match — the bechamel microbenchmarks guard this.

   The typed [emit_om_*] entry points below exist for zero-allocation
   hot paths: the generic [emit] forces its caller to build a
   [Trace.kind] value even when the sink is disabled, which is exactly
   the minor-heap traffic the bench alloc-gate forbids in the packed-OM
   steady state.  The typed forms take immediate arguments and the
   flight recorder stores them as plain ints.  Structure names are
   interned per emit via a short scan of the recorder's name table —
   allocation-free. *)

type t = {
  metrics : Metrics.t option;
  flight : Flight.t option;
  mutable now : int;
  mutable wid : int;
}

let null = { metrics = None; flight = None; now = 0; wid = 0 }

let make ?metrics ?flight () = { metrics; flight; now = 0; wid = 0 }

let is_null s = s == null

let metrics s = s.metrics

let set_context s ~now ~wid =
  if s != null then begin
    s.now <- now;
    s.wid <- wid
  end

let now s = s.now

let emit s kind =
  match s.flight with
  | None -> ()
  | Some fl -> Flight.emit fl ~lane:s.wid ~ts:s.now ~wid:s.wid kind

(* Typed, allocation-free emitters for the OM hot paths. *)

let emit_om_insert s ~om =
  match s.flight with
  | None -> ()
  | Some fl ->
      Flight.emit_raw fl ~lane:s.wid ~ts:s.now ~wid:s.wid
        ~tag:Flight.tag_om_insert ~a:(Flight.intern fl om) ~b:0 ~c:0 ~d:0 ~e:0

let emit_om_relabel s ~om ~moved =
  match s.flight with
  | None -> ()
  | Some fl ->
      Flight.emit_raw fl ~lane:s.wid ~ts:s.now ~wid:s.wid
        ~tag:Flight.tag_om_relabel ~a:(Flight.intern fl om) ~b:moved ~c:0 ~d:0
        ~e:0

let emit_om_bucket_split s ~om =
  match s.flight with
  | None -> ()
  | Some fl ->
      Flight.emit_raw fl ~lane:s.wid ~ts:s.now ~wid:s.wid
        ~tag:Flight.tag_om_bucket_split ~a:(Flight.intern fl om) ~b:0 ~c:0 ~d:0
        ~e:0
