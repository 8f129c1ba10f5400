// Versioned, self-describing codec for service::ResultPayload — the single
// source of truth for how a payload's contents are spelled out, shared by
// the wire protocol renderer (service/protocol.cpp) and the on-disk result
// tier (service::DiskStore).
//
// Two layers:
//
//  * render_payload_fields() — the payload-derived tail of a protocol
//    result line (" stop=... nodes=..." plus the operation's fields). The
//    protocol renderer and any re-render of a decoded payload call this one
//    function, which is what makes result lines byte-identical whether the
//    payload was computed, served from memory, or read back from disk.
//
//  * encode_payload() / decode_payload() — the storage format. One line of
//    whitespace-separated key=value tokens opened by a header:
//
//      rsres v=1 ok=1 kind=analyze stop=proven nodes=8 prunes=2 simplex=0
//            refine=1 solves=3 na=2 a0=0:12:5:1 a1=1:3:2:1 nr=0
//      rsres v=1 ok=1 kind=reduce success=1 stop=limit ... na=0 nr=2
//            r0=0:reduced:4:3:12 r1=1:fits:2:0:0 ddg=<escaped>
//
//    The generic header (ok/kind/success/stop/solver counters/err=) and
//    trailer (ddg= when the payload carries output-DDG text, then a final
//    eol=2 sentinel) bracket the operation's own fields, which the field
//    interpreter here writes and reads back from the result schema of the
//    operation named in kind= (service/operation.hpp): one " <prefix><i>="
//    entry per row, its key and cells colon-joined in column order, counted
//    by the schema's count key, then the schema's scalars. The registry is
//    consulted on decode, so this file knows no operation specifics. The
//    entry count plus the eol=2 sentinel make truncation anywhere —
//    including inside the last variable-length value — detectable. Values
//    that may contain whitespace (ddg=, err=) use the protocol's %XX
//    escaping.
//
//    Decoding is forward-compatible: tokens with unknown keys are skipped,
//    so a newer writer may append fields without breaking this reader.
//    Anything else — a missing/mismatched version header, an unregistered
//    kind=, a malformed or missing required field, an entry-count mismatch
//    — decodes to nullptr, which the disk tier treats as a cache miss
//    (never a crash, never a poisoned payload).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "service/engine.hpp"

namespace rs::service {

/// Bump when the encoded format changes incompatibly; readers treat any
/// other version as a miss.
inline constexpr int kPayloadFormatVersion = 1;

/// Serializes a payload to the versioned keyed format (one line, trailing
/// '\n'). Round-trips every field render_payload_fields() reads, so
/// decode → render is byte-identical to rendering the original.
std::string encode_payload(const ResultPayload& p);

/// Parses an encoded payload; nullptr on version mismatch or any
/// corruption (truncation, malformed numbers, bad escapes, unregistered
/// kind=, entry-count mismatch). Unknown keys are skipped. Never throws.
std::shared_ptr<const ResultPayload> decode_payload(std::string_view text);

/// The payload-derived tail of a protocol result line, starting with a
/// leading space: " stop=<c> nodes=<n>" then the operation's result fields
/// as its result schema lays them out (+ " ddg=<escaped>" when include_ddg
/// and the payload carries output-DDG text). Error payloads render as
/// " msg=<escaped>".
void render_payload_fields(const ResultPayload& p, bool include_ddg,
                           std::ostream& os);
std::string render_payload_fields(const ResultPayload& p, bool include_ddg);

}  // namespace rs::service
