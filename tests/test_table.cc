/** @file Tests for the text-table formatter. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hh"

using namespace vsmooth;

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(3.0, 0), "3");
    EXPECT_EQ(TextTable::num(-1.5, 1), "-1.5");
    EXPECT_EQ(TextTable::num(std::uint64_t(42)), "42");
    EXPECT_EQ(TextTable::num(-7), "-7");
}

TEST(TextTable, PrintsHeaderSeparatorAndRows)
{
    TextTable t("demo");
    t.setHeader({"a", "b"});
    t.addRow({"1", "22"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTable, ColumnsAligned)
{
    TextTable t;
    t.setHeader({"x", "y"});
    t.addRow({"looooong", "1"});
    std::ostringstream os;
    t.print(os);
    // Header line must be padded to the widest cell + 2.
    std::istringstream is(os.str());
    std::string header_line;
    std::getline(is, header_line);
    EXPECT_GE(header_line.size(), std::string("looooong").size());
}

TEST(TextTable, NoHeaderStillPrintsRows)
{
    TextTable t;
    t.addRow({"only", "row"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("only"), std::string::npos);
    EXPECT_EQ(os.str().find("---"), std::string::npos);
}

TEST(TextTable, RaggedRowsTolerated)
{
    TextTable t;
    t.setHeader({"a"});
    t.addRow({"1", "2", "3"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("3"), std::string::npos);
}
