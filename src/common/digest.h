/**
 * @file
 * 64-bit FNV-1a, the one content hash the tools and tests use to say
 * "byte-identical" with a single u64 comparison (output digests in the
 * chaos harness, the committed golden digest manifest).
 */
#ifndef HDVB_COMMON_DIGEST_H
#define HDVB_COMMON_DIGEST_H

#include <cstddef>

#include "common/types.h"

namespace hdvb {

/** Incremental 64-bit FNV-1a hash. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, size_t size)
    {
        const u8 *p = static_cast<const u8 *>(data);
        for (size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 1099511628211ull;
        }
    }

    /** Hash the 8 bytes of @p v (host byte order). */
    void number(s64 v) { bytes(&v, sizeof(v)); }

    u64 value() const { return hash_; }

  private:
    u64 hash_ = 14695981039346656037ull;
};

}  // namespace hdvb

#endif  // HDVB_COMMON_DIGEST_H
