/**
 * @file
 * Module loading on top of the checked file I/O layer: bytes →
 * wasm::Module with content-based binary/WAT routing and precise
 * diagnostics for truncated or non-file inputs (file_io.h). Shared by
 * the CLI and the serve daemon so both report identical errors.
 */

#ifndef WASABI_SUPPORT_MODULE_IO_H
#define WASABI_SUPPORT_MODULE_IO_H

#include <string>
#include <vector>

#include "support/file_io.h"
#include "wasm/decoder.h"
#include "wasm/name_section.h"
#include "wasm/wat_parser.h"

namespace wasabi::support {

/**
 * Decode (binary) or parse (WAT) @p bytes into a Module, applying the
 * name section. @p origin labels diagnostics.
 * @throws IoError for empty/truncated/garbage inputs,
 * wasm::DecodeError / wat parse errors for malformed-but-classified
 * ones.
 */
inline wasm::Module
loadModuleFromBytes(const std::vector<uint8_t> &bytes,
                    const std::string &origin)
{
    wasm::Module m;
    if (classifyModuleBytes(bytes, origin) == ModuleBytesKind::WasmBinary)
        m = wasm::decodeModule(bytes);
    else
        m = wasm::parseWat(std::string(bytes.begin(), bytes.end()));
    wasm::applyNameSection(m);
    return m;
}

/** Load a module from a .wasm / .wat file (content-routed). */
inline wasm::Module
loadModuleFromFile(const std::string &path)
{
    return loadModuleFromBytes(readBinaryFile(path), path);
}

/**
 * The export `run`, `profile` and a serve request invoke when no
 * entry is named: "main", else "kernel" (the PolyBench generators'
 * export) if that exists, else "main" so the caller's missing-export
 * error names it.
 */
inline std::string
defaultEntry(const wasm::Module &m)
{
    return !m.findFuncExport("main") && m.findFuncExport("kernel")
               ? "kernel"
               : "main";
}

} // namespace wasabi::support

#endif // WASABI_SUPPORT_MODULE_IO_H
