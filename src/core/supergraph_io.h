#ifndef ROADPART_CORE_SUPERGRAPH_IO_H_
#define ROADPART_CORE_SUPERGRAPH_IO_H_

#include <string>

#include "common/durable_io.h"
#include "common/status.h"
#include "core/supergraph.h"

namespace roadpart {

/// The one supergraph codec, in the tag-line grammar of common/durable_io.h
/// (doubles as IEEE-754 bit patterns, so a round trip is bit-exact):
///
///   supergraph <num_road_nodes> <num_supernodes>
///   sn <feature> <member_count> <member...>      (one line per supernode)
///   links <num_supernodes>
///   offsets <n+1> <...>     neighbors <2m> <...>     weights <2m> <...>
///
/// The link lines are the CSR arrays of Supergraph::links(), one per line.
/// Used by the supergraph file and by the mining checkpoint stage.
void AppendSupergraph(LineWriter& out, const Supergraph& supergraph);

/// Reads the block AppendSupergraph wrote and validates every invariant
/// (CSR structure, member partition). Every failure is kCorruption. Nothing
/// is sized from a count before the lines it counts are read, so a corrupt
/// count cannot become a large allocation.
Result<Supergraph> ReadSupergraph(LineCursor& cursor);

/// Serializes a mined supergraph so the expensive module-2 result can be
/// cached across repeated partitioning runs (the paper re-partitions the
/// same network at every time interval; the supergraph topology only needs
/// re-mining when densities shift regime). Written atomically inside the
/// checksummed "supergraph" artifact envelope, version 2 (common/durable_io.h);
/// the payload is the AppendSupergraph block.
Status SaveSupergraph(const Supergraph& supergraph, const std::string& path,
                      const RetryOptions& retry = {});

/// Loads a supergraph saved by SaveSupergraph (validating all invariants).
/// Enveloped files are checksum-verified (torn/corrupt -> kCorruption) and
/// must be version 2 (an older file is kCorruption: re-save it);
/// envelope-less files are accepted for hand-authored inputs.
Result<Supergraph> LoadSupergraph(const std::string& path,
                                  const RetryOptions& retry = {});

}  // namespace roadpart

#endif  // ROADPART_CORE_SUPERGRAPH_IO_H_
