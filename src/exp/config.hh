/**
 * @file
 * Sesc-style INI configuration files for the experiment platform.
 *
 * Real simulators describe machines declaratively; the `.conf`
 * hierarchy of sesc is the model here. The dialect:
 *
 *   # comment to end of line
 *   key = value            # global (pre-section) key
 *   [section]              # sections keep declaration order
 *   key = 'quoted value'   # '...' literal, "..." with \n \t \\ \" escapes
 *   list = a, b, c         # lists are comma-separated
 *   ref  = $(key)          # textual expansion of a *global* key
 *
 * Every getter marks its key as consumed; after a consumer has pulled
 * everything it understands, requireAllUsed() turns any leftover key
 * into a diagnostic naming the file, section, and line -- a typo in an
 * experiment description fails loudly instead of silently running the
 * default it was trying to override.
 */

#ifndef XISA_EXP_CONFIG_HH
#define XISA_EXP_CONFIG_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace xisa::exp {

/** Any parse/validation failure of a config or spec; the message names
 *  the file and, when known, the line. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** One parsed `key = value` with its provenance. */
struct ConfEntry {
    std::string key;
    std::string value; ///< unquoted, macro-expanded
    int line = 0;
    bool used = false; ///< touched by a getter (unknown-key diagnostics)
};

/** One parsed configuration file (or string). */
class Config
{
  public:
    /** Parse a file; throws ConfigError on I/O or syntax problems. */
    static Config parseFile(const std::string &path);
    /** Parse from memory; `name` labels diagnostics. */
    static Config parseString(const std::string &text,
                              const std::string &name = "<string>");

    const std::string &name() const { return name_; }

    bool hasSection(const std::string &section) const;
    /** Declaration-ordered section names starting with `prefix`,
     *  e.g. "pool." -> {"pool.static", "pool.balanced", ...}. */
    std::vector<std::string>
    sectionsWithPrefix(const std::string &prefix) const;

    bool has(const std::string &section, const std::string &key) const;

    /** Keys of a section in declaration order (does not mark them
     *  used); empty for a missing section. */
    std::vector<std::string> keysOf(const std::string &section) const;

    /** Typed getters with defaults. Section "" reads global keys. All
     *  mark the key used; malformed values throw ConfigError. */
    std::string getString(const std::string &section,
                          const std::string &key,
                          const std::string &def = "") const;
    int64_t getInt(const std::string &section, const std::string &key,
                   int64_t def) const;
    double getDouble(const std::string &section, const std::string &key,
                     double def) const;
    bool getBool(const std::string &section, const std::string &key,
                 bool def) const;
    /** Comma-separated list; empty default when the key is absent. */
    std::vector<std::string>
    getList(const std::string &section, const std::string &key) const;

    /** Getters for keys that must exist (throw when absent). */
    std::string requireString(const std::string &section,
                              const std::string &key) const;
    int64_t requireInt(const std::string &section,
                       const std::string &key) const;

    /** Throw a ConfigError naming the file and the line of
     *  `section.key` (the file alone when the key is absent). */
    [[noreturn]] void failAt(const std::string &section,
                             const std::string &key,
                             const std::string &msg) const;

    /** "section.key (line N)" for every key no getter touched. */
    std::vector<std::string> unusedKeys() const;
    /** Throw a ConfigError listing every untouched key; a non-empty
     *  `reader` (e.g. "kind = overhead") names who did not read them. */
    void requireAllUsed(const std::string &reader = "") const;

  private:
    struct Section {
        std::string name;
        std::vector<ConfEntry> entries;
    };

    Section *findSection(const std::string &name);
    const Section *findSection(const std::string &name) const;
    const ConfEntry *findEntry(const std::string &section,
                               const std::string &key) const;
    void parseLines(const std::string &text);
    std::string expandMacros(const std::string &value, int line,
                             int depth) const;
    [[noreturn]] void fail(int line, const std::string &msg) const;

    std::string name_;
    std::vector<Section> sections_; ///< [0] is the global section ""
};

/** Helpers shared by spec parsing and the tools-facing writer. */
std::string confQuote(const std::string &s);

} // namespace xisa::exp

#endif // XISA_EXP_CONFIG_HH
