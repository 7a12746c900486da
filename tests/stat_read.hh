/**
 * @file
 * counter(): read a counter by registry name, failing the test on an
 * unknown one (StatRegistry::counterValue returns 0 for it, so a
 * misspelt name would pass any "== 0" check).
 */

#ifndef XISA_TESTS_STAT_READ_HH
#define XISA_TESTS_STAT_READ_HH

#include <gtest/gtest.h>

#include "obs/registry.hh"

namespace xisa {

inline uint64_t
counter(const obs::StatRegistry &reg, const std::string &name)
{
    const obs::Counter *c = reg.findCounter(name);
    if (!c)
        ADD_FAILURE() << "no counter named '" << name << "'";
    return c ? c->value() : 0;
}

} // namespace xisa

#endif // XISA_TESTS_STAT_READ_HH
