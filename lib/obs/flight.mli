(** Post-mortem flight recorder: always-on per-lane rings of recent
    trace events, dumped (with a final metrics snapshot) to a
    deterministic binary [.spr-flight] file when a harness hits a
    failing execution.

    A lane is a {e single-writer} ring — the harness maps each worker
    id to its own lane — so {!emit} is a handful of plain int stores:
    no locks, no allocation, and no torn events by construction.
    Slots are cache-line-sized, so writers on different lanes do not
    share lines.  Read the rings only after the writers quiesce. *)

type t

val create : ?lanes:int -> ?capacity:int -> unit -> t
(** [lanes] single-writer rings (default 1) of [capacity] events each
    (default 512); once a lane is full its oldest events are
    overwritten, keeping the tail of the run. *)

val lanes : t -> int

val capacity : t -> int

val intern : t -> string -> int
(** Id of the string in the recorder's name table, adding it on first
    use.  Resolve once per structure, then pass the id to
    {!emit_raw}. *)

val name : t -> int -> string

(** {1 Recording} *)

(** Event tags for {!emit_raw} — the on-disk numbering, one per
    {!Trace.kind} constructor. *)

val tag_spawn : int
val tag_sync : int
val tag_steal : int
val tag_return : int
val tag_thread_run : int
val tag_trace_split : int
val tag_lock_span : int
val tag_om_insert : int
val tag_om_relabel : int
val tag_om_bucket_split : int
val tag_race_query : int

val emit_raw :
  t ->
  lane:int ->
  ts:int ->
  wid:int ->
  tag:int ->
  a:int ->
  b:int ->
  c:int ->
  d:int ->
  e:int ->
  unit
(** Record a pre-encoded event: plain stores only, allocation-free.
    [lane] is reduced mod {!lanes}; the caller must ensure one writer
    per lane.  Payload fields [a]–[e] are the tag's operands in
    {!Trace.kind} field order (string fields as {!intern} ids, unused
    fields 0). *)

val emit : t -> lane:int -> ts:int -> wid:int -> Trace.kind -> unit
(** Encode and record a typed event (interns names as needed). *)

(** {1 Reading back} *)

val lane_length : t -> int -> int

val lane_dropped : t -> int -> int

val lane_events : t -> int -> Trace.event list
(** Decoded events of one lane, oldest first. *)

val clear : t -> unit

(** {1 Dump files} *)

val to_bytes : ?snapshot:Json.t -> t -> string
(** The deterministic binary [.spr-flight] image: magic + varint-coded
    names, per-lane counts and live events (oldest first), then the
    optional canonical-JSON metrics snapshot. *)

val write_file : ?snapshot:Json.t -> t -> string -> unit

type dump = {
  d_capacity : int;
  d_names : string array;
  d_counts : int array;  (** total events ever emitted, per lane *)
  d_events : Trace.event list array;  (** per lane, oldest first *)
  d_snapshot : Json.t option;
}

val of_bytes : string -> dump
(** @raise Failure (message ["Flight: ..."]) on bad magic, version or
    event tag, on truncation, and on any count or length that is
    negative or larger than the bytes left — a corrupted header never
    sizes an allocation. *)

val read_file : string -> dump

val kind_label : Trace.kind -> string

val pp_dump : Format.formatter -> dump -> unit
(** Per-lane event counts by kind plus drop accounting. *)
