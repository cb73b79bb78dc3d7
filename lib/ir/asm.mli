(** Textual assembly format for IR programs.

    A human-readable serialisation with a parser, so kernels can be
    written as [.casted] files and the hardened output of the passes can
    be inspected, diffed and re-loaded. The format round-trips: for any
    program [p], [parse_exn (print p)] is semantically identical to [p]
    (same execution, cycle for cycle) and textually a fixed point after
    one id-normalising print->parse cycle. Explicit [%id:] prefixes
    preserve the link between detection-code annotations ([@repl(id)],
    [@chk(id)], [@shad(id)]) and the instructions they reference.

    {v
    program entry=main mem=65536 output=64:8
    data 256 hex:00AA1BFF
    func main() {
    entry:
      movi r0, 256
      ld8 r1, [r0+0]
      %7: addi r2, r1, 4        ; ids only where referenced
      addi r3, r2, 1 @repl(7)   ; detection-code annotation
      st8 r2, [r0+8]
      brc.t p0, entry, done
    done:
      halt
    }
    func helper(r0, r1) : gp unprotected {
    entry:
      add r2, r0, r1
      ret r2
    }
    v} *)

(** Serialise a whole program. *)
val print : Program.t -> string

(** Parse a program. Returns [Error message] with a line number on
    syntax errors; the result is not validated (run {!Validate} next). *)
val parse : string -> (Program.t, string) result

val parse_exn : string -> Program.t
